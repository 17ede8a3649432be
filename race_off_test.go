//go:build !race

package rijndaelip_test

const raceEnabled = false
