//go:build race

package rijndaelip_test

// raceEnabled reports a -race build: the race detector slows the
// simulators tens of times over and instruments allocations, so the
// allocation gates skip under it.
const raceEnabled = true
