//go:build !race

package hks

const raceEnabled = false
