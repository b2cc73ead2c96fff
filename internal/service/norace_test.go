//go:build !race

package service

// raceEnabled reports a build with the race detector, under which sync.Pool
// drops a random share of what is put into it.
const raceEnabled = false
