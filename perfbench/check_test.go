package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/phy"
	"repro/internal/serve"
)

// linePoints places points on the x axis at the given coordinates.
func linePoints(xs ...float64) []phy.Point {
	pts := make([]phy.Point, len(xs))
	for i, x := range xs {
		pts[i] = phy.Point{x, 0}
	}
	return pts
}

func TestCheckMISBrute(t *testing.T) {
	pts := linePoints(0, 0.6, 1.2, 3.0)
	if err := checkMISBrute(pts, 1, []int{0, 2, 3}); err != nil {
		t.Fatalf("valid MIS rejected: %v", err)
	}
	if err := checkMISBrute(pts, 1, []int{0, 1, 3}); err == nil || !strings.Contains(err.Error(), "not independent") {
		t.Fatalf("edge inside the set accepted: %v", err)
	}
	if err := checkMISBrute(pts, 1, []int{0, 2}); err == nil || !strings.Contains(err.Error(), "not maximal") {
		t.Fatalf("non-maximal set accepted: %v", err)
	}
	if err := checkMISBrute(pts, 1, []int{0, 0, 2, 3}); err == nil {
		t.Fatal("duplicate member accepted")
	}
}

func TestEccentricity(t *testing.T) {
	// Path 0-1-2-3.
	adj := map[int][]int32{0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2}}
	f := func(v int) []int32 { return adj[v] }
	if e, err := eccentricity(4, f, 0); err != nil || e != 3 {
		t.Fatalf("ecc(0) = %d, %v; want 3", e, err)
	}
	if e, err := eccentricity(4, f, 1); err != nil || e != 2 {
		t.Fatalf("ecc(1) = %d, %v; want 2", e, err)
	}
	adj[3], adj[2] = nil, []int32{1}
	if _, err := eccentricity(4, f, 0); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

func TestCheckFlood(t *testing.T) {
	if err := checkFlood(100, 40, 100, 500, 30); err != nil {
		t.Fatalf("valid flood rejected: %v", err)
	}
	if err := checkFlood(100, 20, 100, 500, 30); err == nil || !strings.Contains(err.Error(), "eccentricity") {
		t.Fatalf("flood completing before the source's eccentricity accepted: %v", err)
	}
	if err := checkFlood(100, -1, 97, 500, 30); err == nil {
		t.Fatal("incomplete flood accepted")
	}
	if err := checkFlood(100, 40, 99, 500, 30); err == nil {
		t.Fatal("flood leaving a node uninformed accepted")
	}
}

func TestCheckAdjacency(t *testing.T) {
	pts := linePoints(0, 0.6, 1.2, 3.0)
	right := map[int][]int32{0: {1}, 1: {0, 2}, 2: {1}, 3: nil}
	all := []int{0, 1, 2, 3}
	if err := checkAdjacency(pts, 1, func(v int) []int32 { return right[v] }, all); err != nil {
		t.Fatalf("correct adjacency rejected: %v", err)
	}
	for name, wrong := range map[string]map[int][]int32{
		"far neighbor":     {0: {1}, 1: {0, 2, 3}, 2: {1}, 3: nil},
		"missing neighbor": {0: {1}, 1: {0}, 2: {1}, 3: nil},
		"duplicate":        {0: {1, 1}, 1: {0, 2}, 2: {1}, 3: nil},
	} {
		if err := checkAdjacency(pts, 1, func(v int) []int32 { return wrong[v] }, all); err == nil {
			t.Errorf("%s: wrong adjacency list accepted", name)
		}
	}
}

func TestCheckBody(t *testing.T) {
	for _, sp := range []serve.Spec{
		{Graph: "grid", N: 16, Algo: "mis", Seed: 3},
		{Graph: "churn:grid", N: 16, Algo: "flood", Epochs: 3, Seed: 3},
	} {
		r, err := serve.Execute(sp, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		body, err := r.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if err := checkBody(body, body); err != nil {
			t.Fatalf("%v: genuine body rejected: %v", sp, err)
		}
		tampered := bytes.Replace(body, []byte(`"n": 16`), []byte(`"n": 17`), 1)
		if bytes.Equal(tampered, body) {
			t.Fatalf("%v: test body has no n field to tamper with", sp)
		}
		if err := checkBody(tampered, body); err == nil {
			t.Fatalf("%v: tampered body accepted", sp)
		}
	}
}

func TestCheckRecordRows(t *testing.T) {
	body := func(rows string) []byte {
		return []byte(`{"record":{"tables":[{"header":["metric","n","mean","stddev","ci95","min","max"],"rows":[` + rows + `]}]}}`)
	}
	ok := body(`["valid","2","1","0","[1, 1]","1","1"]`)
	if err := checkRecordRows(ok); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	if err := checkRecordRows(body(`["valid","2","0.5","0.7","[0, 1]","0","1"]`)); !errors.Is(err, errNotValid) {
		t.Fatalf("invalid MIS record: got %v, want errNotValid", err)
	}
	for name, b := range map[string][]byte{
		"invalid MIS": body(`["valid","2","0.5","0.7","[0, 1]","0","1"]`),
		"overcount": body(`["informed_end","1","20","0","[20, 20]","20","20"],` +
			`["n_nodes","1","16","0","[16, 16]","16","16"]`),
		"completed but uncovered": body(`["completed","1","1","0","[1, 1]","1","1"],` +
			`["informed_end","1","15","0","[15, 15]","15","15"],["n_nodes","1","16","0","[16, 16]","16","16"]`),
		"not a result": []byte(`{"error":"boom"}`),
	} {
		if err := checkRecordRows(b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
