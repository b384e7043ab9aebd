//go:build race

package indexeddf

// raceEnabled reports a -race build: sync.Pool then drops items at
// random, so allocation counts that rely on a pooled buffer vary.
const raceEnabled = true
