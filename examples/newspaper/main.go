// Newspaper: the paper's other motivating workload — delivering "a large
// newspaper to a million subscribers". At that scale the binding
// constraint is session state and traffic, not data bandwidth: direct
// all-pairs RTT estimation needs O(n²) traffic and O(n) state per
// receiver. This example prints the paper's Figure-8 analytic table for
// the full 10,000,210-receiver national hierarchy, then *measures* the
// same effect on a scaled-down instance.
//
//	go run ./examples/newspaper
package main

import (
	"fmt"
	"log"

	"sharqfec"
)

func main() {
	log.SetFlags(0)

	fmt.Println("analytic: the paper's national distribution hierarchy")
	fmt.Println("(10 regions × 20 cities × 100 suburbs × 500 subscribers)")
	fmt.Println()
	fmt.Print(sharqfec.Figure8Report())

	fmt.Println()
	fmt.Println("measured: session traffic on a scaled-down hierarchy")
	rep, err := sharqfec.RunScalingSweep(sharqfec.ScalingSweepConfig{
		Regions: 3, Cities: 4, Suburbs: 3, Subscribers: []int{6}, Seed: 11, Seconds: 10,
	})
	if err != nil {
		log.Fatal(err)
	}
	// The point's receivers exclude the source, which is a member too.
	p := rep.Points[0]
	fmt.Printf("  members:               %d\n", p.Receivers+1)
	fmt.Printf("  scoped session pkts:   %d over 10 s\n", p.ScopedDeliveries)
	fmt.Printf("  flat session pkts:     %d over 10 s\n", p.FlatDeliveries)
	fmt.Printf("  traffic reduction:     %.1fx\n", float64(p.FlatDeliveries)/float64(p.ScopedDeliveries))
	fmt.Printf("  state per node:        %d (scoped, worst case) vs %d (flat)\n",
		p.ScopedStateMeasured, p.FlatStateAnalytic)
	fmt.Println()
	fmt.Println("the reduction grows with hierarchy depth and fanout: at the paper's")
	fmt.Println("scale each suburb subscriber tracks 630 peers instead of 10,000,210")
}
