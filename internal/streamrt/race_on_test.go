//go:build race

package streamrt

// raceEnabled reports whether this test binary was built with the race
// detector; allocation-count pins skip under it (instrumentation
// allocates).
const raceEnabled = true
