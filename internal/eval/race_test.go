//go:build race

package eval

const raceEnabled = true
