// Resilience: exercises the failure-handling and extension machinery in
// one run — ZCR failure with re-election, a receiver joining mid-stream
// with localized catch-up, and hierarchical receiver-report aggregation
// (the paper's §3.2 robustness claims and §7 future-work items).
//
//	go run ./examples/resilience
package main

import (
	"fmt"
	"log"

	"sharqfec"
)

func main() {
	log.SetFlags(0)

	fmt.Println("1. ZCR failure: kill a zone's representative mid-stream")
	// ChaosConfig's default fault plan is this scenario: ZCRCrashPlan
	// kills the first leaf zone's ZCR at 9 s.
	fo, err := sharqfec.RunChaos(sharqfec.ChaosConfig{Seed: 100})
	if err != nil {
		log.Fatal(err)
	}
	re := fo.Reelections[0]
	fmt.Printf("   failed ZCR %d (zone %d): new ZCR %d, survivor completion %.2f%%, zone completion %.2f%%\n",
		re.Crashed, re.Zone, re.NewZCR, 100*fo.CompletionRate, 100*re.ZoneCompletion)
	fmt.Println("   survivors re-elect and scope escalation covers the gap")
	fmt.Println()

	fmt.Println("2. Late join: a receiver subscribes after the stream ends")
	lj, err := sharqfec.RunLateJoin(100, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   %s\n", lj)
	fmt.Println("   the zone's ZCR serves the catch-up; the backbone barely notices")
	fmt.Println()

	fmt.Println("3. Receiver reports: the source's view of session quality")
	rr, err := sharqfec.RunReceiverReports(100)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   source sees worst loss %.1f%% (truth %.1f%%) across %d receivers\n",
		100*rr.SourceWorstLoss, 100*rr.TrueWorstLoss, rr.SourceMembers)
	fmt.Printf("   ...from only %d aggregated reporters instead of %d\n",
		rr.DirectReporters, rr.Receivers)
}
