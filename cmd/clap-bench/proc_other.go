//go:build !unix

package main

import "time"

// No getrusage here: the CPU and RSS metrics read 0 and the benchmark is
// only meaningful on the unix boxes it is run on.
func cpuTime() time.Duration { return 0 }
func peakRSSMB() float64     { return 0 }
