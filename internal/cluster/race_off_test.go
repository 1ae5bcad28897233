//go:build !race

package cluster

// raceEnabled reports whether this test binary was built with the race
// detector, whose instrumentation allocates.
const raceEnabled = false
