package mccsd

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mccs/internal/proxy"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/topo"
)

func TestP2PSendRecvCorrectness(t *testing.T) {
	s, d := newDeployment(DefaultConfig())
	gpus := oneGPUPerHost(d)
	const count = 1000
	var received []float32
	launchRanks(s, d, "appA", gpus, func(p *sim.Proc, rank int, f *Frontend, gpu topo.GPUID) {
		buf, err := f.MemAlloc(p, gpu, count*4, true)
		if err != nil {
			t.Error(err)
			return
		}
		comm, err := f.CommInitRank(p, "job0", len(gpus), rank, gpu)
		if err != nil {
			t.Error(err)
			return
		}
		switch rank {
		case 0:
			for j := range buf.Data() {
				buf.Data()[j] = float32(j % 97)
			}
			h, err := comm.Send(p, buf, count, 2, nil)
			if err != nil {
				t.Error(err)
				return
			}
			h.Wait(p)
		case 2:
			h, err := comm.Recv(p, buf, count, 0, nil)
			if err != nil {
				t.Error(err)
				return
			}
			stats := h.Wait(p)
			if stats.Bytes != count*4 {
				t.Errorf("recv bytes = %d", stats.Bytes)
			}
			received = append([]float32(nil), buf.Data()...)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if received == nil {
		t.Fatal("rank 2 received nothing")
	}
	for j, v := range received {
		if v != float32(j%97) {
			t.Fatalf("elem %d = %g, want %g", j, v, float32(j%97))
		}
	}
}

func TestP2POrderedWithCollectives(t *testing.T) {
	// A send issued after an AllReduce on the same communicator must not
	// deliver data from before the AllReduce (pipeline ordering).
	s, d := newDeployment(DefaultConfig())
	gpus := oneGPUPerHost(d)
	const count = 64
	var got float32
	launchRanks(s, d, "appA", gpus, func(p *sim.Proc, rank int, f *Frontend, gpu topo.GPUID) {
		buf, _ := f.MemAlloc(p, gpu, count*4, true)
		for j := range buf.Data() {
			buf.Data()[j] = 1
		}
		comm, err := f.CommInitRank(p, "job0", len(gpus), rank, gpu)
		if err != nil {
			t.Error(err)
			return
		}
		h, _ := comm.AllReduce(p, nil, buf, count, nil)
		// Do NOT wait: pipeline the send right behind the collective.
		switch rank {
		case 0:
			hs, err := comm.Send(p, buf, count, 1, nil)
			if err != nil {
				t.Error(err)
				return
			}
			h.Wait(p)
			hs.Wait(p)
		case 1:
			out, _ := f.MemAlloc(p, gpu, count*4, true)
			hr, err := comm.Recv(p, out, count, 0, nil)
			if err != nil {
				t.Error(err)
				return
			}
			h.Wait(p)
			hr.Wait(p)
			got = out.Data()[0]
		default:
			h.Wait(p)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// The send ran after the AllReduce summed 1 across 4 ranks.
	if got != 4 {
		t.Fatalf("received %g, want post-AllReduce value 4", got)
	}
}

func TestP2PValidation(t *testing.T) {
	s, d := newDeployment(DefaultConfig())
	gpus := oneGPUPerHost(d)
	launchRanks(s, d, "appA", gpus, func(p *sim.Proc, rank int, f *Frontend, gpu topo.GPUID) {
		buf, _ := f.MemAlloc(p, gpu, 64, false)
		comm, err := f.CommInitRank(p, "job0", len(gpus), rank, gpu)
		if err != nil {
			t.Error(err)
			return
		}
		if rank != 0 {
			return
		}
		if _, err := comm.Send(p, buf, 0, 1, nil); err == nil {
			t.Error("zero-count send accepted")
		}
		if _, err := comm.Send(p, nil, 4, 1, nil); err == nil {
			t.Error("nil-buffer send accepted")
		}
		if _, err := comm.Send(p, buf, 4, 0, nil); err == nil {
			t.Error("self-send accepted")
		}
		if _, err := comm.Recv(p, buf, 4, 9, nil); err == nil {
			t.Error("out-of-range peer accepted")
		}
		if _, err := comm.Send(p, buf, 17, 1, nil); err == nil {
			t.Error("send beyond the buffer accepted")
		}
		if _, err := comm.Recv(p, buf, 17, 1, nil); err == nil {
			t.Error("receive beyond the buffer accepted")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestP2PSurvivesReconfiguration(t *testing.T) {
	// A P2P exchange issued while a collective-strategy reconfiguration
	// is in flight must still complete (P2P connections are
	// communicator-lifetime).
	s, d := newDeployment(DefaultConfig())
	gpus := oneGPUPerHost(d)
	const count = 512
	var ok bool
	launchRanks(s, d, "appA", gpus, func(p *sim.Proc, rank int, f *Frontend, gpu topo.GPUID) {
		buf, _ := f.MemAlloc(p, gpu, count*4, true)
		comm, err := f.CommInitRank(p, "job0", len(gpus), rank, gpu)
		if err != nil {
			t.Error(err)
			return
		}
		h, _ := comm.AllReduce(p, nil, buf, count, nil)
		h.Wait(p)
		if rank == 0 {
			// Kick a reconfiguration and immediately send.
			rev := spec.Strategy{Channels: []spec.ChannelSpec{{Order: []int{3, 2, 1, 0}, Route: 0}}}
			if _, err := d.Reconfigure(comm.ID(), rev, []time.Duration{0, time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}); err != nil {
				t.Error(err)
				return
			}
			for j := range buf.Data() {
				buf.Data()[j] = 7
			}
			hs, _ := comm.Send(p, buf, count, 3, nil)
			hs.Wait(p)
		}
		if rank == 3 {
			out, _ := f.MemAlloc(p, gpu, count*4, true)
			hr, _ := comm.Recv(p, out, count, 0, nil)
			hr.Wait(p)
			ok = out.Data()[count-1] == 7
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("p2p across reconfiguration lost data")
	}
}

// TestCheckQuiescentCatchesUnreceivedMessage: a send whose receive is never
// posted completes on the sender's side and leaves its one message in the
// connection; once the scheduler drains, CheckQuiescent must name that
// connection. With the receive posted, the same run is quiescent.
func TestCheckQuiescentCatchesUnreceivedMessage(t *testing.T) {
	for _, received := range []bool{true, false} {
		s, d := newDeployment(DefaultConfig())
		gpus := oneGPUPerHost(d)
		const count = 16 // one slice: one message
		launchRanks(s, d, "appA", gpus, func(p *sim.Proc, rank int, f *Frontend, gpu topo.GPUID) {
			buf, _ := f.MemAlloc(p, gpu, count*4, false)
			comm, err := f.CommInitRank(p, "job0", len(gpus), rank, gpu)
			if err != nil {
				t.Error(err)
				return
			}
			var h *OpHandle
			switch {
			case rank == 0:
				h, err = comm.Send(p, buf, count, 2, nil)
			case rank == 2 && received:
				h, err = comm.Recv(p, buf, count, 0, nil)
			default:
				return
			}
			if err != nil {
				t.Error(err)
				return
			}
			h.Wait(p)
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		err := d.CheckQuiescent()
		switch {
		case received && err != nil:
			t.Errorf("received: %v", err)
		case !received && (err == nil || !strings.Contains(err.Error(), "point-to-point conn 0->2 (channel -1) holds 1 undelivered message")):
			t.Errorf("unreceived send: CheckQuiescent = %v", err)
		}
		s.Shutdown()
	}
}

// TestCheckQuiescentNamesAWedgedRank: a reconfiguration that reaches ranks
// 1–3 of four parks them in the sequence-number AllGather, waiting for
// rank 0, for good. The run drains without a deadlock error (the control
// loops are service daemons), and CheckQuiescent must name the first
// wedged rank.
func TestCheckQuiescentNamesAWedgedRank(t *testing.T) {
	s, d := newDeployment(DefaultConfig())
	gpus := oneGPUPerHost(d)
	var id spec.CommID
	launchRanks(s, d, "appA", gpus, func(p *sim.Proc, rank int, f *Frontend, gpu topo.GPUID) {
		comm, err := f.CommInitRank(p, "job0", len(gpus), rank, gpu)
		if err != nil {
			t.Error(err)
			return
		}
		id = comm.ID()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckQuiescent(); err != nil {
		t.Fatalf("before the reconfiguration: %v", err)
	}
	c := d.comms[id]
	for _, r := range c.Runners[1:] {
		r.Enqueue(&proxy.ReconfigRequest{Strategy: c.Strategy()})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("mccsd: communicator %d rank 1 not quiescent after drain", id)
	if err := d.CheckQuiescent(); err == nil || err.Error() != want {
		t.Errorf("CheckQuiescent = %v, want %q", err, want)
	}
	s.Shutdown()
}
