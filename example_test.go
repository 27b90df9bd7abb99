package clap_test

import (
	"fmt"
	"math/rand"

	"clap"
)

// The paper's motivating example (§1): a forged RST with a bad TCP
// checksum is injected into a benign connection. A strict endhost drops
// it and keeps talking, while each DPI model believes the connection is
// over and stops inspecting it, so the data that follows escapes. That
// divergence is the ground truth that the evasion works; CLAP, trained
// on benign traffic only, is the defence that flags such connections.
func ExampleCheckEvasion() {
	strategy, ok := clap.AttackByName("GFW: Injected RST Bad TCP-Checksum/MD5-Option")
	if !ok {
		panic("strategy not in the corpus")
	}
	rng := rand.New(rand.NewSource(2))

	var victim *clap.Connection
	for _, c := range clap.GenerateBenign(30, 11) {
		cc := c.Clone()
		if strategy.Apply(cc, rng) && cc.Len() >= 10 {
			victim = cc
			break
		}
	}
	if victim == nil {
		panic("no suitable carrier connection")
	}
	fmt.Printf("%v: adversarial packet at %v\n", victim.Key, victim.AdvIdx)
	for _, r := range clap.CheckEvasion(victim) {
		fmt.Println(r)
	}
	// Output:
	// 172.102.25.8:47697 > 210.200.142.238:53: adversarial packet at [3]
	// GFW{escaped=true resynced=false poisoned=0B phantom=0B missed=0B}
	// Zeek{escaped=true resynced=false poisoned=0B phantom=0B missed=0B}
	// Snort{escaped=true resynced=false poisoned=0B phantom=0B missed=0B}
}
