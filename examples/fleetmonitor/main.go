// Fleetmonitor demonstrates the operational mitigations §3.2 recommends:
// page retirement for small-footprint faults and a fault-count-triggered
// node exclude list for the handful of machines that dominate the error
// counts. It clusters the logged error stream (as an online monitor
// would), evaluates both policies, and contrasts the paper-aligned
// fault-count trigger with the naive error-count trigger. It then feeds
// the stream into the live serving layer and polls /v1/atrisk — the
// predict-then-retire view an operator's dashboard would tail.
//
//	go run ./examples/fleetmonitor
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"sort"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exclusion"
	"repro/internal/report"
	"repro/internal/retire"
	"repro/internal/serve"
	"repro/internal/simtime"
	"repro/internal/stream"
	"repro/internal/topology"
)

func main() {
	log.SetFlags(0)
	cfg := dataset.DefaultConfig(7)
	cfg.Nodes = 432
	ctx := context.Background()
	ds, err := dataset.Build(ctx, cfg)
	if err != nil {
		log.Fatal(err)
	}
	faults, err := core.Cluster(ctx, ds.CERecords, core.DefaultClusterConfig())
	if err != nil {
		log.Fatal(err)
	}
	end := simtime.MinuteOf(cfg.Fault.End)

	fmt.Println("=== fleet monitor: mitigations over the logged CE stream ===")
	fmt.Printf("input: %s CE records, %d clustered faults on %d nodes\n\n",
		report.FormatCount(float64(len(ds.CERecords))), len(faults), cfg.Nodes)

	// Page retirement over the raw event stream (the kernel sees events
	// before the log, so use ground-truth events for the engine).
	engine := retire.NewEngine(7, retire.DefaultPolicy())
	engine.Filter(ds.Pop.CEs)
	rs := engine.Stats()
	fmt.Printf("page retirement: %d pages retired (%s of memory), suppressing %s errors (%s)\n",
		rs.Retired, report.FormatCount(float64(rs.MemoryRetiredBytes())),
		report.FormatCount(float64(rs.Suppressed)),
		report.FormatPct(float64(rs.Suppressed)/float64(rs.Seen)))

	// Exclude-list policies: the paper-aligned fault trigger vs the naive
	// error trigger, at the same exclusion budget.
	for _, policy := range []exclusion.Policy{
		{Trigger: exclusion.ByFaults, FaultThreshold: 6, MaxExcluded: 12},
		{Trigger: exclusion.ByErrors, ErrorThreshold: 50, MaxExcluded: 12},
	} {
		out, err := exclusion.Evaluate(ds.CERecords, faults, policy, end)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nexclude list (%v, budget %d):\n", policy.Trigger, policy.MaxExcluded)
		fmt.Printf("  drained %d nodes, avoided %s errors at %.1f node-days lost (%.0f errors/node-day)\n",
			len(out.Excluded), report.FormatCount(float64(out.ErrorsAvoided)),
			out.NodeDaysLost, out.AvoidedPerNodeDay)
		var nodes []topology.NodeID
		for n := range out.Excluded {
			nodes = append(nodes, n)
		}
		sort.Slice(nodes, func(a, b int) bool { return nodes[a] < nodes[b] })
		faultsPerNode := map[topology.NodeID]int{}
		for _, f := range faults {
			faultsPerNode[f.Node]++
		}
		for _, n := range nodes {
			fmt.Printf("  %s drained %s (%d clustered faults)\n",
				n, out.Excluded[n].Time().Format("2006-01-02"), faultsPerNode[n])
		}
	}
	fmt.Println("\nthe error trigger drains earlier but also flags single-fault nodes that")
	fmt.Println("page retirement already handles — count faults, not errors (§3.2).")

	atRisk(ds)
}

// atRisk feeds the logged stream into the live serving layer and polls
// /v1/atrisk over real HTTP — the same endpoint astrad serves — then
// prints the fleet's top banks by predicted failure risk.
func atRisk(ds *dataset.Dataset) {
	eng := stream.New(stream.Config{})
	eng.IngestBatch(ds.CERecords)
	srv := serve.New(serve.Config{Source: eng})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()

	resp, err := http.Get("http://" + ln.Addr().String() + "/v1/atrisk?limit=10")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var ar struct {
		Predictor string `json:"predictor"`
		Banks     int    `json:"banks"`
		AtRisk    []struct {
			Node      string  `json:"node"`
			Slot      string  `json:"slot"`
			Rank      int     `json:"rank"`
			Bank      int     `json:"bank"`
			Score     float64 `json:"score"`
			CEs       int     `json:"ces"`
			SpanHours float64 `json:"spanHours"`
			Words     int     `json:"words"`
		} `json:"atRisk"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n=== /v1/atrisk: top banks by predicted failure risk (%s, %d banks tracked) ===\n",
		ar.Predictor, ar.Banks)
	fmt.Println("rank  node            slot    rk bank  score   CEs     span    words")
	for i, e := range ar.AtRisk {
		fmt.Printf("%4d  %-15s %-7s %2d %4d  %.3f  %-6s %5.0fh  %5d\n",
			i+1, e.Node, e.Slot, e.Rank, e.Bank, e.Score,
			report.FormatCount(float64(e.CEs)), e.SpanHours, e.Words)
	}
	fmt.Println("\nbanks climbing the ladder here are the predict-then-retire candidates:")
	fmt.Println("retiring them before the DUE beats reacting after it (see astrapredict -mode payoff).")
}
