// Multitenant: two tenants share the testbed's oversubscribed fabric.
// Under plain ECMP their collectives collide unpredictably; with the MCCS
// controller's fair flow assignment each tenant gets a clean, equal share.
package main

import (
	"fmt"
	"log"

	"mccs"
)

const (
	count = 32 << 20 / 4 // 32 MB per AllReduce
	iters = 10
)

// runTenants launches two 4-GPU tenants (one GPU per host each) that loop
// AllReduces concurrently, returning mean per-tenant algorithm bandwidth.
func runTenants(system mccs.System, applyFFA bool) map[mccs.AppID]float64 {
	env, err := mccs.NewTestbed(system)
	if err != nil {
		log.Fatal(err)
	}
	apps := []mccs.AppID{"tenant-A", "tenant-B"}
	sums := map[mccs.AppID]float64{}
	counts := map[mccs.AppID]int{}

	// The provider's controller applies FFA once both communicators are
	// registered.
	if applyFFA {
		ctrl := env.Controller()
		env.Scheduler().GoDaemon("controller", func(p *mccs.Proc) {
			for len(env.Deployment().View()) < len(apps) {
				p.Sleep(1e6) // 1ms
			}
			if err := ctrl.ApplyFFA(); err != nil {
				log.Fatal(err)
			}
		})
	}

	for ai, app := range apps {
		app := app
		var gpus []mccs.GPUID
		for _, h := range env.Cluster().Hosts {
			gpus = append(gpus, h.GPUs[ai])
		}
		for rank, gpu := range gpus {
			rank, gpu := rank, gpu
			env.Scheduler().Go(fmt.Sprintf("%s:r%d", app, rank), func(p *mccs.Proc) {
				f := env.Frontend(gpu, app)
				buf, err := f.MemAlloc(p, gpu, count*4, false)
				if err != nil {
					log.Fatal(err)
				}
				comm, err := f.CommInitRank(p, string(app), len(gpus), rank, gpu)
				if err != nil {
					log.Fatal(err)
				}
				for it := 0; it < iters; it++ {
					h, err := comm.AllReduce(p, nil, buf, count, nil)
					if err != nil {
						log.Fatal(err)
					}
					stats := h.Wait(p)
					if rank == 0 && it >= 2 { // skip warmup
						sums[app] += stats.AlgBW()
						counts[app]++
					}
				}
			})
		}
	}
	if err := env.Scheduler().Run(); err != nil {
		log.Fatal(err)
	}
	out := map[mccs.AppID]float64{}
	for app, s := range sums {
		out[app] = s / float64(counts[app])
	}
	return out
}

func main() {
	ecmp := runTenants(mccs.SystemMCCSNoFA, false)
	ffa := runTenants(mccs.SystemMCCS, true)

	fmt.Println("mean per-tenant AllReduce algorithm bandwidth (GB/s):")
	fmt.Printf("  %-10s %10s %10s\n", "tenant", "ECMP", "MCCS+FFA")
	for _, app := range []mccs.AppID{"tenant-A", "tenant-B"} {
		fmt.Printf("  %-10s %10.2f %10.2f\n", app, ecmp[app]/1e9, ffa[app]/1e9)
	}
	gap := func(m map[mccs.AppID]float64) float64 {
		a, b := m["tenant-A"], m["tenant-B"]
		if b == 0 {
			return 0
		}
		if a < b {
			a, b = b, a
		}
		return a / b
	}
	fmt.Printf("unfairness (max/min): ECMP %.2f, MCCS+FFA %.2f\n", gap(ecmp), gap(ffa))
}
