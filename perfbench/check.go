package main

// Independent checkers. Each recomputes what it needs from the generated
// inputs by the plainest method available — pairwise distances, a BFS of
// its own — rather than through the program's grid builders, so a fault in
// a builder cannot vouch for itself.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"

	"repro/internal/phy"
)

// within is the unit-disk predicate on the generated points:
// |p - q| ≤ r, computed directly from the coordinates.
func within(p, q phy.Point, r float64) bool {
	dx, dy := p[0]-q[0], p[1]-q[1]
	return math.Sqrt(dx*dx+dy*dy) <= r
}

// checkMISBrute verifies that set is an independent and maximal set of the
// disk graph of radius r on pts, by pairwise distances.
func checkMISBrute(pts []phy.Point, r float64, set []int) error {
	if err := checkMISMaximal(pts, r, set); err != nil {
		return err
	}
	if c := misConflicts(pts, r, set); len(c) > 0 {
		u, v := c[0][0], c[0][1]
		return fmt.Errorf("not independent: %d and %d are %.4f apart (range %.4f)", u, v, dist(pts[u], pts[v]), r)
	}
	return nil
}

// checkMISMaximal verifies that set lists distinct nodes and that every
// node outside it has a member within radius r.
func checkMISMaximal(pts []phy.Point, r float64, set []int) error {
	in := make([]bool, len(pts))
	for _, v := range set {
		if v < 0 || v >= len(pts) {
			return fmt.Errorf("mis member %d out of range", v)
		}
		if in[v] {
			return fmt.Errorf("mis member %d listed twice", v)
		}
		in[v] = true
	}
	for v := range pts {
		if in[v] {
			continue
		}
		covered := false
		for _, u := range set {
			if within(pts[u], pts[v], r) {
				covered = true
				break
			}
		}
		if !covered {
			return fmt.Errorf("not maximal: node %d has no member within range %.4f", v, r)
		}
	}
	return nil
}

// misConflicts lists the member pairs of set within radius r of each
// other: the edges inside the set.
func misConflicts(pts []phy.Point, r float64, set []int) [][2]int {
	var out [][2]int
	for i, u := range set {
		for _, v := range set[i+1:] {
			if within(pts[u], pts[v], r) {
				out = append(out, [2]int{u, v})
			}
		}
	}
	return out
}

func dist(p, q phy.Point) float64 {
	dx, dy := p[0]-q[0], p[1]-q[1]
	return math.Sqrt(dx*dx + dy*dy)
}

// eccentricity is the largest BFS distance from src over adj, or an error
// when some node is unreachable.
func eccentricity(n int, adj func(v int) []int32, src int) (int, error) {
	d := make([]int, n)
	for i := range d {
		d[i] = -1
	}
	d[src] = 0
	queue := []int{src}
	ecc := 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range adj(v) {
			if d[w] < 0 {
				d[w] = d[v] + 1
				ecc = max(ecc, d[w])
				queue = append(queue, int(w))
			}
		}
	}
	for v, dv := range d {
		if dv < 0 {
			return 0, fmt.Errorf("node %d unreachable from %d", v, src)
		}
	}
	return ecc, nil
}

// checkAdjacency compares the neighbor list of each sampled node with a
// brute-force scan of every point within radius r.
func checkAdjacency(pts []phy.Point, r float64, adj func(v int) []int32, sample []int) error {
	for _, v := range sample {
		want := map[int32]bool{}
		for u := range pts {
			if u != v && within(pts[u], pts[v], r) {
				want[int32(u)] = true
			}
		}
		got := adj(v)
		seen := map[int32]bool{}
		for _, u := range got {
			if !want[u] {
				return fmt.Errorf("node %d lists %d, which is %.4f away (radius %.4f)", v, u, dist(pts[u], pts[v]), r)
			}
			if seen[u] {
				return fmt.Errorf("node %d lists %d twice", v, u)
			}
			seen[u] = true
		}
		if len(seen) != len(want) {
			return fmt.Errorf("node %d lists %d neighbors, brute-force scan finds %d", v, len(seen), len(want))
		}
	}
	return nil
}

// checkFlood verifies one flood outcome: every node informed within the
// budget, and completion no earlier than the source's eccentricity (one
// hop per step is the most any flood can do).
func checkFlood(n, complete, informedEnd, budget, ecc int) error {
	if complete < 0 || complete > budget {
		return fmt.Errorf("flood incomplete within budget %d (complete=%d)", budget, complete)
	}
	if informedEnd != n {
		return fmt.Errorf("flood informed %d of %d nodes", informedEnd, n)
	}
	if complete < ecc {
		return fmt.Errorf("flood completed at step %d, before the source's eccentricity %d", complete, ecc)
	}
	return nil
}

// errNotValid is checkRecordRows' verdict on a record whose "valid" row
// does not hold in every replica: an MIS that is not independent or not
// maximal in its graph.
var errNotValid = errors.New(`record row "valid" does not hold in every replica`)

// checkBody is the served-body oracle: the body must equal the result
// computed apart from the service, byte for byte, and its record must
// pass its own validity and coverage rows.
func checkBody(got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("served body (%d bytes) differs from a fresh Execute (%d bytes)", len(got), len(want))
	}
	return checkRecordRows(got)
}

// checkRecordRows reads a Result body's table and checks the rows that
// state correctness: "valid" (an MIS verified against its graph) must hold
// in every replica, and a flood's coverage must be consistent — never more
// informed nodes than nodes, and every node informed when every replica
// reports completion. Completion itself is a measurement, not a claim: a
// flood's budget may end first.
func checkRecordRows(body []byte) error {
	var res struct {
		Record struct {
			Tables []struct {
				Header []string   `json:"header"`
				Rows   [][]string `json:"rows"`
			} `json:"tables"`
		} `json:"record"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		return fmt.Errorf("body is not a Result: %w", err)
	}
	if len(res.Record.Tables) != 1 {
		return fmt.Errorf("record has %d tables, want 1", len(res.Record.Tables))
	}
	t := res.Record.Tables[0]
	if len(t.Header) != 7 || t.Header[5] != "min" || t.Header[6] != "max" {
		return fmt.Errorf("record table header %v, want metric,n,mean,stddev,ci95,min,max", t.Header)
	}
	rows := map[string][]string{}
	for _, r := range t.Rows {
		if len(r) != len(t.Header) {
			return fmt.Errorf("record row has %d cells for %d columns", len(r), len(t.Header))
		}
		rows[r[0]] = r
	}
	if r, ok := rows["valid"]; ok && r[5] != "1" {
		return fmt.Errorf("%w: min %s, want 1", errNotValid, r[5])
	}
	if r, ok := rows["informed_end"]; ok {
		nr, ok := rows["n_nodes"]
		if !ok {
			return fmt.Errorf("flood record has informed_end but no n_nodes row")
		}
		informed, err1 := strconv.ParseFloat(r[6], 64)
		nodes, err2 := strconv.ParseFloat(nr[6], 64)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("flood record: unreadable informed_end %q or n_nodes %q", r[6], nr[6])
		}
		if informed > nodes {
			return fmt.Errorf("flood record: informed_end max %s exceeds n_nodes %s", r[6], nr[6])
		}
		if c, ok := rows["completed"]; ok && c[5] == "1" && r[5] != nr[6] {
			return fmt.Errorf("flood record: every replica completed, yet informed_end min %s of %s nodes", r[5], nr[6])
		}
	}
	return nil
}
