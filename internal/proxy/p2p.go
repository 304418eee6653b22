package proxy

import (
	"fmt"

	"mccs/internal/collective"
	"mccs/internal/spec"
)

// Point-to-point communication (paper §5 lists P2P alongside tree
// algorithms as a straightforward extension). A send or a receive is an
// OpRequest like any other, lowered to a one-step pipelined program — the
// way NCCL builds send/recv from the channel and slot primitives of its
// collectives — and run by the same execution pipeline and schedule
// interpreter (exec.go), which is what preserves the NCCL contract that
// operations on one communicator execute in issue order. It does not
// advance the reconfiguration sequence number: the Fig. 4 barrier counts
// collectives, which involve every rank and therefore have globally
// consistent sequence numbers; a pairwise op does not. P2P connections are
// communicator-lifetime (lazily created, never torn down by
// reconfiguration, which only concerns collective strategy), so a
// reconfiguration can never strand an in-flight P2P message on a closed
// connection.

// P2PKind says which half of a point-to-point transfer an OpRequest is;
// the zero value is a collective.
type P2PKind uint8

const (
	P2PSend P2PKind = iota + 1
	P2PRecv
)

// p2pLabels label the operation's trace span.
var p2pLabels = [...]string{P2PSend: "send", P2PRecv: "recv"}

// lowerP2P returns the program of a send or receive — one step, sliced and
// streamed like a ring step, written over buf as collective.Lower writes its
// programs — creating its connection on first use.
func (r *Runner) lowerP2P(buf []collective.Step, op *OpRequest) collective.Program {
	c := r.comm
	if op.Peer < 0 || op.Peer >= c.Info.NumRanks() || op.Peer == r.rank {
		panic(fmt.Sprintf("proxy: p2p with bad peer %d", op.Peer))
	}
	st := collective.Step{SendPeer: op.Peer, SendLen: op.Count, RecvPeer: -1}
	from, to := r.rank, op.Peer
	if op.P2P == P2PRecv {
		st = collective.Step{SendPeer: -1, RecvPeer: op.Peer, RecvLen: op.Count}
		from, to = to, from
	}
	// Where the interpreter looks it up: channel -1 of the zero Algo.
	edge := collective.Edge{Channel: -1, From: from, To: to}
	if _, ok := c.p2p[edge]; !ok {
		fi, ti := c.Info.Ranks[from], c.Info.Ranks[to]
		label := connLabel(c.cfg.LabelSalt, c.Info.ID, -1, 1<<21, from, to)
		conn, err := c.engines[fi.Host].Connect(c.Info.App, fi.NIC, ti.NIC, spec.RouteECMP, label)
		if err != nil {
			panic(fmt.Sprintf("proxy: comm %d p2p conn %d->%d: %v", c.Info.ID, from, to, err))
		}
		c.p2p[edge] = conn
	}
	return collective.Program{Steps: append(buf[:0], st), Pipelined: true}
}
