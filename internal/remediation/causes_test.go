package remediation

import (
	"testing"

	"mccs/internal/diagnosis"
	"mccs/internal/harness"
	"mccs/internal/ncclsim"
	"mccs/internal/sim"
	"mccs/internal/spec"
)

// TestSlowGPURetunesTheNamedComm: a straggler verdict names its
// communicator, and the re-tune rung acts on that one — not on whichever
// communicator the management view lists first. A verdict whose
// communicator is gone is skipped.
func TestSlowGPURetunesTheNamedComm(t *testing.T) {
	env, err := harness.NewEnv(harness.EnvOptions{System: ncclsim.MCCS})
	if err != nil {
		t.Fatal(err)
	}
	defer env.S.Shutdown()
	apps, err := harness.Setup(env.Cluster, 1) // two 4-GPU apps
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range apps {
		for rank, gpu := range app.GPUs {
			app, rank, gpu := app, rank, gpu
			env.S.Go("rank", func(p *sim.Proc) {
				f := env.Deployment.Service(env.Cluster.HostOfGPU(gpu)).Frontend(app.Name)
				if _, err := f.CommInitRank(p, string(app.Name), len(app.GPUs), rank, gpu); err != nil {
					t.Error(err)
				}
			})
		}
	}
	if err := env.S.Run(); err != nil {
		t.Fatal(err)
	}
	view := env.Deployment.View()
	if len(view) != 2 {
		t.Fatalf("%d communicators, want 2", len(view))
	}
	generation := func(id spec.CommID) int {
		comm, ok := env.Deployment.Comm(id)
		if !ok {
			t.Fatalf("communicator %d gone", id)
		}
		return comm.Runners[0].Generation()
	}

	e := Attach(env.S, env.Deployment, env.Controller(), nil, DefaultConfig())
	straggler := view[1].ID
	const gone = 99
	for _, comm := range []int32{int32(straggler), gone} {
		e.onIncident(&diagnosis.Incident{
			Class: diagnosis.ClassSlowGPU, Detector: diagnosis.DetStraggler,
			Comm: comm, Rank: 2, Link: -1, Detected: env.S.Now(),
		})
	}
	env.S.Go("tick", func(p *sim.Proc) { e.tick(p) })
	if err := env.S.Run(); err != nil {
		t.Fatal(err)
	}

	if len(e.events) != 1 {
		t.Fatalf("%d actions, want one re-tune: %+v", len(e.events), e.events)
	}
	if a := e.events[0]; a.Action != "retune" || a.Comm != int32(straggler) || a.Rank != 2 {
		t.Errorf("action %+v, want a re-tune of comm %d around rank 2", a, straggler)
	}
	if g := generation(straggler); g != 1 {
		t.Errorf("straggling comm %d at generation %d, want 1 (re-tuned)", straggler, g)
	}
	if g := generation(view[0].ID); g != 0 {
		t.Errorf("healthy comm %d at generation %d, want 0 (untouched)", view[0].ID, g)
	}
}
