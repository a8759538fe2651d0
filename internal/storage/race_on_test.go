//go:build race

package storage

// raceEnabled reports a build under the race detector, whose
// instrumentation allocates on paths the allocation pins measure.
const raceEnabled = true
