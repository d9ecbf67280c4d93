// Command sharqfec-node runs one SHARQFEC session member over real UDP —
// the protocol engines unchanged from the simulator, bound to sockets
// via the udpmesh transport.
//
// Every member of a session must be started with the same -topology and
// -base-port; member n listens on 127.0.0.1:(base-port+n). -topology
// takes the simulator's names, figure10 | chain:N | star:N | tree:FxF,
// with lossless links. For example, a four-node chain on one machine:
//
//	sharqfec-node -topology chain:4 -node 0 -source -packets 64 &
//	sharqfec-node -topology chain:4 -node 1 &
//	sharqfec-node -topology chain:4 -node 2 &
//	sharqfec-node -topology chain:4 -node 3 &
//
// Or run the whole session in one process:
//
//	sharqfec-node -demo -topology chain:4 -loss 0.15 -packets 64
//
// Synthetic per-destination loss (-loss) stands in for lossy links so
// the repair machinery has something to do on a reliable loopback.
package main

import (
	"bytes"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"slices"
	"time"

	"sharqfec/internal/core"
	"sharqfec/internal/eventq"
	"sharqfec/internal/scoping"
	"sharqfec/internal/simrand"
	"sharqfec/internal/telemetry"
	"sharqfec/internal/telemetry/census"
	"sharqfec/internal/telemetry/health"
	"sharqfec/internal/topology"
	"sharqfec/internal/udpmesh"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sharqfec-node: ")

	topoFlag := flag.String("topology", "chain:4", "figure10 | chain:N | star:N | tree:FxF — must match across members")
	nodeID := flag.Int("node", 0, "this member's node ID")
	source := flag.Bool("source", false, "act as the data source")
	basePort := flag.Int("base-port", 9000, "member n listens on 127.0.0.1:(base-port+n)")
	loss := flag.Float64("loss", 0.15, "synthetic per-destination loss on data/repairs")
	packets := flag.Int("packets", 64, "data packets to stream (multiple of 16)")
	rate := flag.Float64("rate", 800e3, "stream rate, bits/s")
	warmup := flag.Duration("warmup", 2*time.Second, "session warm-up before the source streams")
	timeout := flag.Duration("timeout", 60*time.Second, "give up after this long")
	demo := flag.Bool("demo", false, "run every member in this process")
	seed := flag.Uint64("seed", 7, "loss / protocol RNG seed")
	metricsAddr := flag.String("metrics-addr", "", "serve live metrics on this address (/metrics Prometheus text, /debug/vars expvar, /healthz)")
	sloPath := flag.String("slo", "", "SLO spec file: evaluate streaming health objectives live (needs -metrics-addr)")
	flag.Parse()

	spec, err := topology.Parse(*topoFlag, 0)
	if err != nil {
		log.Fatal(err)
	}
	h, err := scoping.Build(spec.Zones)
	if err != nil {
		log.Fatal(err)
	}

	var slo *health.Spec
	if *sloPath != "" {
		f, err := os.Open(*sloPath)
		if err != nil {
			log.Fatal(err)
		}
		slo, err = health.ParseSpec(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		if *metricsAddr == "" {
			log.Fatal("-slo needs -metrics-addr (the health engine rides the metrics bus)")
		}
	}

	cfg := core.DefaultConfig()
	cfg.Source = spec.Source
	cfg.NumPackets = *packets
	cfg.Rate = *rate
	var cens *census.Engine
	if *metricsAddr != "" {
		cfg.Telemetry, cens = serveMetrics(*metricsAddr, h, spec.Graph.NumNodes(), slo)
	}

	if *demo {
		runDemo(spec, h, cfg, cens, *loss, *seed, *warmup, *timeout)
		return
	}

	mesh := &udpmesh.Mesh{H: h, Addrs: addressPlan(spec, *basePort), Loss: *loss, Seed: *seed}
	id := topology.NodeID(*nodeID)
	node, err := udpmesh.NewNode(mesh, id, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer node.Close()

	ag, err := core.New(id, node, cfg, simrand.New(*seed))
	if err != nil {
		log.Fatal(err)
	}
	registerProbe(cens, id, node, ag)
	groups := cfg.NumGroups()
	done := make(chan struct{}, groups)
	if !*source {
		ag.OnComplete = func(_ eventq.Time, gid uint32, _ [][]byte) {
			fmt.Printf("group %d complete\n", gid)
			done <- struct{}{}
		}
	}
	node.Do(func() { ag.Join() })
	log.Printf("node %d up on %s (%d members, %d zones)", id, mesh.Addrs[id], len(spec.Members()), h.NumZones())

	if *source {
		time.Sleep(*warmup)
		node.Do(func() { ag.StartSource() })
		streamLen := time.Duration(float64(*packets)*cfg.InterPacket()*float64(time.Second)) + *timeout
		log.Printf("streaming %d packets; serving repairs for up to %v", *packets, streamLen)
		time.Sleep(streamLen)
		return
	}
	completed := 0
	deadline := time.After(*timeout)
	for completed < groups {
		select {
		case <-done:
			completed++
		case <-deadline:
			log.Fatalf("timed out with %d/%d groups", completed, groups)
		}
	}
	log.Printf("all %d groups reconstructed", groups)
}

// serveMetrics starts the live observability endpoint: a telemetry bus
// whose registry is exposed as Prometheus text (with HELP/TYPE
// metadata) on /metrics, as expvar JSON on /debug/vars, and — when an
// SLO spec is given — judged live on /healthz (200 while every
// objective holds, 503 with one active violation per line otherwise).
// The protocol goroutines only touch atomic counters on the scrape
// path, and the health engine serializes behind its own mutex, so
// scrapes never block the session.
//
// The returned census engine rides the same bus and registry, so the
// census_* families (scope-addressed traffic by class, per-zone state,
// session RTT tables) appear on /metrics too. There is no link matrix
// or virtual scheduler on a live node; state probes are registered per
// agent and sampled by a wall-clock ticker.
func serveMetrics(addr string, h *scoping.Hierarchy, numNodes int, slo *health.Spec) (*telemetry.Bus, *census.Engine) {
	bus := telemetry.NewBus()
	m := telemetry.NewMetrics(nil, h, numNodes)
	bus.Attach(m.Sink())
	cens := census.New(m.Reg, h, numNodes)
	bus.Attach(cens.Sink())
	start := time.Now()
	go func() {
		for range time.Tick(time.Second) {
			cens.Snapshot(time.Since(start).Seconds())
		}
	}()
	var eng *health.Engine
	if slo != nil {
		eng = health.NewEngine(slo, bus)
		bus.Attach(eng.Sink())
	}
	// The same self-describing preamble the simulator emits: the health
	// engine (like the span assembler) learns the zone hierarchy from
	// zone_info / zone_member events, never from side channels.
	telemetry.EmitZones(bus, h)
	expvar.Publish("sharqfec", expvar.Func(func() any { return m.Reg.Snapshot() }))
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = m.Reg.WritePrometheusMeta(w, telemetry.PromHelp)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if eng == nil {
			fmt.Fprintln(w, "ok (no SLO configured)")
			return
		}
		if lines := eng.ActiveLines(); len(lines) > 0 {
			w.WriteHeader(http.StatusServiceUnavailable)
			for _, l := range lines {
				fmt.Fprintln(w, l)
			}
			return
		}
		fmt.Fprintln(w, "ok")
	})
	go func() {
		log.Printf("metrics on http://%s/metrics, health on /healthz", addr)
		if err := http.ListenAndServe(addr, mux); err != nil {
			log.Printf("metrics endpoint: %v", err)
		}
	}()
	return bus, cens
}

// registerProbe installs the agent's state-census probe, hopping onto
// the node's executor so the read never races the protocol goroutine.
// A node that closes (or wedges) mid-probe reports zero after a grace
// period rather than blocking the census ticker.
func registerProbe(c *census.Engine, id topology.NodeID, node *udpmesh.Node, ag *core.Agent) {
	if c == nil {
		return
	}
	c.SetProbe(id, census.ProbeFunc(func() census.State {
		res := make(chan census.State, 1)
		node.Do(func() { res <- ag.StateCensus() })
		select {
		case st := <-res:
			return st
		case <-time.After(time.Second):
			return census.State{}
		}
	}))
}

// runDemo hosts every member in-process on ephemeral ports and checks
// every reconstructed group, byte for byte, against what the source
// sent.
func runDemo(spec *topology.Spec, h *scoping.Hierarchy, cfg core.Config, cens *census.Engine, loss float64, seed uint64, warmup, timeout time.Duration) {
	_, nodes, err := udpmesh.NewLocalMesh(h, spec.Members(), loss, seed)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	src := simrand.New(seed)
	type completion struct {
		node topology.NodeID
		gid  uint32
		data [][]byte
	}
	done := make(chan completion, 1024)
	agents := map[topology.NodeID]*core.Agent{}
	for _, m := range spec.Members() {
		ag, err := core.New(m, nodes[m], cfg, src)
		if err != nil {
			log.Fatal(err)
		}
		node := m
		if m != spec.Source {
			ag.OnComplete = func(_ eventq.Time, gid uint32, data [][]byte) {
				// data is valid only during the call: copy it before it
				// leaves this node's executor.
				own := make([][]byte, len(data))
				for i, p := range data {
					own[i] = bytes.Clone(p)
				}
				done <- completion{node, gid, own}
			}
		}
		agents[m] = ag
		registerProbe(cens, m, nodes[m], ag)
	}
	for _, m := range spec.Members() {
		ag := agents[m]
		nodes[m].Do(func() { ag.Join() })
	}
	log.Printf("demo: %d members over UDP loopback, %.0f%% synthetic loss", len(spec.Members()), 100*loss)
	time.Sleep(warmup)
	srcAgent := agents[spec.Source]
	nodes[spec.Source].Do(func() { srcAgent.StartSource() })
	want := (len(spec.Members()) - 1) * cfg.NumGroups()
	got := 0
	start := time.Now()
	deadline := time.After(timeout)
	// sent reads a group's original payloads on the source's executor,
	// under the same deadline as the whole demo.
	sent := func(gid uint32) [][]byte {
		res := make(chan [][]byte, 1)
		go nodes[spec.Source].Do(func() { res <- srcAgent.SentGroup(gid) })
		select {
		case orig := <-res:
			return orig
		case <-deadline:
			log.Fatalf("timed out reading group %d from the source: %d/%d (receiver,group) pairs", gid, got, want)
			return nil
		}
	}
	for got < want {
		select {
		case c := <-done:
			// A group the source never sent (nil) fails too.
			if orig := sent(c.gid); orig == nil || !slices.EqualFunc(c.data, orig, bytes.Equal) {
				log.Fatalf("node %d reconstructed group %d differently from what the source sent", c.node, c.gid)
			}
			got++
		case <-deadline:
			log.Fatalf("timed out: %d/%d (receiver,group) pairs", got, want)
		}
	}
	log.Printf("every receiver reconstructed every group, byte-identical to the source's, in %.2fs of wall time", time.Since(start).Seconds())
}

func addressPlan(spec *topology.Spec, basePort int) map[topology.NodeID]*net.UDPAddr {
	addrs := map[topology.NodeID]*net.UDPAddr{}
	for _, m := range spec.Members() {
		addrs[m] = &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: basePort + int(m)}
	}
	return addrs
}
