//go:build race

package allocbudget

const raceEnabled = true
