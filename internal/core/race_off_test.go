//go:build !race

package core

// raceEnabled reports whether this test binary was built with the race
// detector.
const raceEnabled = false
