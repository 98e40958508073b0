package gen

import (
	"testing"

	"repro/internal/xrand"
)

func TestScheduleByNameKinds(t *testing.T) {
	for _, spec := range []string{"churn:grid", "churn:gnp", "fault:cycle", "fault:tree", "mobile:udg"} {
		s, err := ScheduleByName(spec, 64, 4, 10, 0.25, 9)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if s.N() == 0 || s.Epochs() < 1 {
			t.Fatalf("%s: degenerate schedule %d nodes %d epochs", spec, s.N(), s.Epochs())
		}
		// ByName's skeleton view must be exactly the schedule's epoch 0 —
		// including for mobile:udg, whose placement convention differs from
		// the static "udg" class.
		if spec == "churn:grid" || spec == "mobile:udg" {
			base, err := ByName(spec, 64, 9)
			if err != nil {
				t.Fatal(err)
			}
			if !s.CSR(0).Equal(base.Freeze()) {
				t.Fatalf("%s: epoch-0 snapshot differs from ByName's skeleton", spec)
			}
		}
	}
}

func TestScheduleByNameStaticFallback(t *testing.T) {
	s, err := ScheduleByName("grid", 25, 4, 10, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Epochs() != 1 {
		t.Fatalf("static class produced %d epochs, want 1", s.Epochs())
	}
}

func TestScheduleByNameErrors(t *testing.T) {
	if _, err := ScheduleByName("warp:grid", 16, 2, 5, 0, 1); err == nil {
		t.Fatal("want unknown-kind error")
	}
	if _, err := ScheduleByName("churn:nosuch", 16, 2, 5, 0, 1); err == nil {
		t.Fatal("want unknown-class error")
	}
	if _, err := ScheduleByName("mobile:grid", 16, 2, 5, 0, 1); err == nil {
		t.Fatal("want mobile-class error")
	}
	if _, err := ByName("warp:grid", 16, 1); err == nil {
		t.Fatal("want ByName unknown-kind error")
	}
}

func TestScheduleByNameDeterministic(t *testing.T) {
	for _, spec := range []string{"churn:grid", "fault:gnp", "mobile:udg"} {
		a, err := ScheduleByName(spec, 48, 5, 8, 0.3, 77)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ScheduleByName(spec, 48, 5, 8, 0.3, 77)
		if err != nil {
			t.Fatal(err)
		}
		if a.Epochs() != b.Epochs() {
			t.Fatalf("%s: epoch counts differ (%d vs %d)", spec, a.Epochs(), b.Epochs())
		}
		for i := 0; i < a.Epochs(); i++ {
			if a.Start(i) != b.Start(i) || !a.CSR(i).Equal(b.CSR(i)) {
				t.Fatalf("%s: epoch %d differs between identical builds", spec, i)
			}
		}
	}
}

func TestMobileUDGMoves(t *testing.T) {
	s, err := MobileUDG(60, 6, 10, 0.5, xrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if s.Epochs() < 2 {
		t.Fatal("half-range-per-epoch mobility never rewired the UDG")
	}
	// Zero speed must freeze the topology.
	s0, err := MobileUDG(60, 6, 10, 0, xrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if s0.Epochs() != 1 {
		t.Fatalf("zero-speed mobility produced %d epochs, want 1", s0.Epochs())
	}
}

// TestScheduleGrowerMatchesScheduleByName: a churn:/fault: grower asked for
// epoch counts in any order returns ScheduleByName's schedule for each;
// other specs have no grower, and bad specs fail as in ScheduleByName.
func TestScheduleGrowerMatchesScheduleByName(t *testing.T) {
	for _, spec := range []string{"churn:grid", "fault:gnp", "churn:udg"} {
		gr, err := ScheduleGrower(spec, 48, 8, 0, 77)
		if err != nil || gr == nil {
			t.Fatalf("%s: grower %v, err %v", spec, gr, err)
		}
		for _, e := range []int{3, 9, 1, 9, 6} {
			want, err := ScheduleByName(spec, 48, e, 8, 0, 77)
			if err != nil {
				t.Fatal(err)
			}
			got := gr.Upto(e)
			if got.Epochs() != want.Epochs() {
				t.Fatalf("%s epochs=%d: %d epochs, want %d", spec, e, got.Epochs(), want.Epochs())
			}
			for i := 0; i < want.Epochs(); i++ {
				if got.Start(i) != want.Start(i) || !got.CSR(i).Equal(want.CSR(i)) {
					t.Fatalf("%s epochs=%d: epoch %d differs", spec, e, i)
				}
			}
		}
	}
	for _, spec := range []string{"grid", "mobile:udg", "phy:sinr", "warp:grid"} {
		if gr, err := ScheduleGrower(spec, 48, 8, 0, 77); gr != nil || err != nil {
			t.Fatalf("%s: grower %v, err %v; want none", spec, gr, err)
		}
	}
	if _, err := ScheduleGrower("churn:nosuch", 16, 5, 0, 1); err == nil {
		t.Fatal("churn:nosuch: want an error")
	}
	if _, err := ScheduleGrower("churn:grid", 16, 5, 1.5, 1); err == nil {
		t.Fatal("churn rate 1.5: want an error")
	}
}
