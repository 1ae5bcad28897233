//go:build race

package core

// raceEnabled reports whether this test binary was built with the race
// detector, under which sync.Pool drops a share of what is put back, so
// pooled scratch is reallocated and allocation budgets do not hold.
const raceEnabled = true
