package chaosnet

import "bcnphase/internal/seeded"

// goldenStream exposes the fault-dimension stream to the golden test as
// its Int63n draw.
func goldenStream(seed, id int64) func(int64) int64 {
	return seeded.NewLocked(seeded.Seed(seed, id)).Int63n
}
