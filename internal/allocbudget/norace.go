//go:build !race

package allocbudget

const raceEnabled = false
