//go:build race

package hks

// raceEnabled reports a -race build, under which sync.Pool drops items
// at random, so pooled paths allocate and allocation counts mean nothing.
const raceEnabled = true
