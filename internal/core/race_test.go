//go:build race

package core

// raceEnabled reports that the tests run under the race detector, whose
// runtime allocates more for the same program.
const raceEnabled = true
