package xcheck

import (
	"errors"
	"math"
	"strings"
	"testing"

	"bcnphase/internal/core"
)

// TestPaperExampleSelfCheck is the repository's self-checking version of
// the paper's Theorem 1 worked example: N=50 flows on a 10 Gbps link need
// (1+sqrt(Ru·Gi·N/(Gd·C)))·q0 ≈ 13.8 Mbit of buffer, so the 5 Mbit
// bandwidth-delay-product buffer is below the bound and the canonical
// trajectory overflows — which xcheck must flag as a strong-stability
// violation while all closed-form/numeric comparisons agree.
func TestPaperExampleSelfCheck(t *testing.T) {
	p := core.PaperExample()
	rep, err := CrossValidate(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("paper example drifted: %v", err)
	}
	// The paper's ≈13.75 Mbit requirement: (1+sqrt(20.48))·2.5 Mbit.
	want := (1 + math.Sqrt(20.48)) * 2.5e6
	if math.Abs(rep.Stability.Bound-want)/want > 1e-12 {
		t.Fatalf("bound = %v, want %v", rep.Stability.Bound, want)
	}
	if rep.Stability.Bound < 13.7e6 || rep.Stability.Bound > 13.9e6 {
		t.Fatalf("bound %v outside the paper's ≈13.8 Mbit example", rep.Stability.Bound)
	}
	if rep.Stability.Satisfied {
		t.Fatal("5 Mbit buffer should not satisfy Theorem 1")
	}
	if rep.Stability.StronglyStable {
		t.Fatal("paper example with BDP buffer should not be strongly stable")
	}
	if !rep.Stability.Consistent {
		t.Fatalf("unsatisfied bound is not a contradiction: %+v", rep.Stability)
	}
	if !strings.Contains(rep.Stability.Flag, "strong-stability violation") {
		t.Fatalf("flag = %q, want strong-stability violation", rep.Stability.Flag)
	}
	if len(rep.Comparisons) < 4 {
		t.Fatalf("only %d comparisons ran: %v", len(rep.Comparisons), rep)
	}
}

// TestPaperExampleWithAdequateBuffer raises B above the Theorem 1 bound:
// the theorem then guarantees strong stability and the trajectory must
// deliver it.
func TestPaperExampleWithAdequateBuffer(t *testing.T) {
	p := core.PaperExample()
	p.B = core.Theorem1Bound(p) * 1.05
	rep, err := CrossValidate(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("adequate-buffer example failed: %v", err)
	}
	if !rep.Stability.Satisfied || !rep.Stability.StronglyStable || !rep.Stability.Consistent {
		t.Fatalf("stability = %+v", rep.Stability)
	}
	if rep.Stability.Flag != "" {
		t.Fatalf("unexpected flag: %q", rep.Stability.Flag)
	}
}

// TestFigureExampleDrift checks the scaled Case 1 set used by the figure
// experiments: every closed-form quantity must match the independent
// integration within tolerance.
func TestFigureExampleDrift(t *testing.T) {
	rep, err := CrossValidate(core.FigureExample(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("figure example drifted: %v", err)
	}
	names := map[string]bool{}
	for _, c := range rep.Comparisons {
		names[c.Name] = true
		if math.IsNaN(c.Numeric) {
			t.Fatalf("%s: numeric side missing", c.Name)
		}
	}
	for _, want := range []string{
		"first-crossing-time", "first-crossing-x", "first-crossing-y",
		"first-max-x", "solve-max-x", "first-min-x", "theorem1-envelope",
	} {
		if !names[want] {
			t.Fatalf("comparison %q missing (have %v)", want, names)
		}
	}
}

// TestAllCasesCrossValidate sweeps the five case classifications.
func TestAllCasesCrossValidate(t *testing.T) {
	for _, kind := range []core.CaseKind{core.Case1, core.Case2, core.Case3, core.Case4, core.Case5} {
		p := core.CaseExample(kind)
		rep, err := CrossValidate(p, Options{})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if err := rep.Err(); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
	}
}

// TestFailsLoudlyPastTolerance forces an absurdly small tolerance: the
// harness must surface a *DriftError naming the drifting comparisons
// rather than passing silently.
func TestFailsLoudlyPastTolerance(t *testing.T) {
	rep, err := CrossValidate(core.FigureExample(), Options{Tol: 1e-16})
	if err != nil {
		t.Fatal(err)
	}
	rerr := rep.Err()
	var de *DriftError
	if !errors.As(rerr, &de) {
		t.Fatalf("want *DriftError, got %T: %v", rerr, rerr)
	}
	if len(de.Failures) == 0 {
		t.Fatal("DriftError carries no failures")
	}
	if !strings.Contains(de.Error(), "drift") {
		t.Fatalf("error text %q lacks drift details", de.Error())
	}
	if len(rep.Failures()) != len(de.Failures) {
		t.Fatal("Failures() disagrees with Err()")
	}
}

// TestInvalidParamsRejected ensures the harness refuses unusable input
// instead of producing a vacuous report.
func TestInvalidParamsRejected(t *testing.T) {
	p := core.PaperExample()
	p.Gd = -p.Gd
	if _, err := CrossValidate(p, Options{}); !errors.Is(err, core.ErrInvalidParams) {
		t.Fatalf("want ErrInvalidParams, got %v", err)
	}
}

// TestReportString smoke-tests the human-readable rendering used by the
// report CLI.
func TestReportString(t *testing.T) {
	rep, err := CrossValidate(core.PaperExample(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := rep.String()
	for _, frag := range []string{"xcheck:", "first-crossing-time", "theorem1", "flag:"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("String() lacks %q:\n%s", frag, s)
		}
	}
}
