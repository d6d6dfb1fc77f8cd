// Package analytic is the batch front end of the phase-plane kernel: a
// structure-of-arrays Batch that classifies K parameter points per call
// through core.Classify (paper §IV-B, eqs. 12–34) and reports each
// verdict as columns, plus the analytic_* telemetry family the sweep
// tools expose.
//
// The batch adds no arithmetic of its own. core holds the only
// closed-form stitching loop and the only arc implementation, so a
// Batch column is bit-identical to the core.Summary of the same point,
// and a warm Batch solves with zero allocations (TestBatchSolveAllocs).
package analytic

import (
	"fmt"

	"bcnphase/internal/core"
)

// Options configures a batch solve; it is core.SolveOptions, applied
// uniformly to every point.
type Options = core.SolveOptions

// Path records which engine produced a batch column.
type Path int

// The execution paths.
const (
	// PathAnalytic: closed-form arc stitching end to end. Every solved
	// point reports it.
	PathAnalytic Path = iota + 1
	// PathRK45 names stitched numerical integration. The kernel has no
	// numerical fallback, so no point reports it; the value stays so
	// readers of the Path column can keep counting it (as zero).
	PathRK45
)

// String names the path.
func (p Path) String() string {
	switch p {
	case PathAnalytic:
		return "analytic"
	case PathRK45:
		return "rk45"
	default:
		return fmt.Sprintf("Path(%d)", int(p))
	}
}
