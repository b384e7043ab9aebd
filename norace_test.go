//go:build !race

package indexeddf

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
