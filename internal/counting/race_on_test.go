//go:build race

package counting

// raceEnabled reports whether the race detector is active; allocation-count
// assertions are skipped under it (the detector's shadow memory inflates
// alloc counts).
const raceEnabled = true
