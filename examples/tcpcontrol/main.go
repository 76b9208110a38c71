// TCP control plane: run the full prototype split — a real Paraleon
// controller serving on localhost TCP, and a simulated RDMA cluster whose
// per-ToR agents upload sketch-derived metrics and apply the parameters
// the controller returns — then print the Table IV-style overheads.
//
// This example deliberately reaches below the facade into
// internal/harness, because the testbed driver is part of the
// reproduction harness rather than the library surface.
package main

import (
	"fmt"
	"log"

	paraleon "repro"
	"repro/internal/ctrlrpc"
	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	// A controller with LLM-style throughput weights.
	serverCfg := ctrlrpc.DefaultServerConfig()
	serverCfg.Weights = paraleon.ThroughputWeights()

	scale := harness.QuickScale()
	res, err := harness.Run(harness.RunConfig{
		Net:      scale.Net,
		Scheme:   harness.ParaleonScheme(),
		Interval: scale.Interval,
		Duration: 80 * paraleon.Millisecond,
		Wire:     &harness.Wire{Server: serverCfg},
		Workload: func(n *sim.Network) error {
			_, err := workload.InstallAlltoall(n, workload.AlltoallConfig{
				Workers:      n.Topo.Hosts()[:6],
				MessageBytes: 1 << 20,
				OffTime:      4 * paraleon.Millisecond,
			})
			return err
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	st := res.Wire.Server
	fmt.Println("tcp control plane demo (80 ms virtual, controller on TCP loopback)")
	fmt.Printf("  controller ticks:        %d\n", st.Ticks)
	fmt.Printf("  reports received:        %d\n", st.Reports)
	fmt.Printf("  KL triggers:             %d\n", st.Triggers)
	fmt.Printf("  parameter dispatches:    %d\n", st.Dispatches)
	fmt.Printf("  wire: report frame       %d B\n", res.Wire.ReportBytes)
	fmt.Printf("  wire: params frame       %d B\n", res.Wire.ParamsBytes)
	fmt.Printf("  wire: total in/out       %d / %d B\n", st.BytesIn, st.BytesOut)
	fmt.Printf("  controller compute:      %v total\n", st.Processing)
	if res.TP.Len() > 0 {
		from := int64(60 * paraleon.Millisecond)
		to := int64(80 * paraleon.Millisecond)
		fmt.Printf("  last 20ms means: TP=%.3f RTTnorm=%.3f\n",
			res.TP.MeanOver(from, to), res.RTT.MeanOver(from, to))
	}
}
