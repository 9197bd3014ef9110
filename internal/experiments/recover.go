package experiments

import (
	"bytes"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/fees"
	"repro/internal/host"
	"repro/internal/ibc"
	"repro/internal/netsim"
	"repro/internal/nodestore"
)

// RecoverResult summarises a kill-and-recover chaos run: a disk-backed
// guest whose pivotal validator goes dark mid-run (so finalisation stalls
// while block generation keeps committing unsynced state), power-cut at
// the WAL's last durable byte, then reopened cold. Recovery must land
// exactly on the last finalised root, and historical proofs regenerated
// from the recovered store must be byte-identical to the pre-crash ones.
type RecoverResult struct {
	// Window is the injected validator crash that stalls finalisation.
	Window netsim.CrashWindow
	// HeadHeight and FinalisedHeight are the guest chain's tip and last
	// finalised block at the moment of the power cut. The gap is work the
	// cut legitimately discards: committed but never finalised, so never
	// fsynced.
	HeadHeight      uint64
	FinalisedHeight uint64
	// RecoveredHeight and RecoveredRoot come from the reopened WAL's head
	// root record.
	RecoveredHeight uint64
	RootMatch       bool
	// LostBlocks = HeadHeight - FinalisedHeight: unfinalised blocks the
	// power cut rolled back (expected under the stall, never finalised
	// state).
	LostBlocks int
	// RetainedRecovered counts historical versions the reopened store can
	// still serve proofs from.
	RetainedRecovered int
	// ProofsChecked / ProofsIdentical: historical membership proofs taken
	// before the cut and regenerated from the recovered store.
	ProofsChecked   int
	ProofsIdentical bool
	// ColdOpenMs is the wall-clock cost of replaying the WAL and
	// restoring the store (nodestore.Open + NewStoreWithBackend).
	ColdOpenMs float64
	// FlushP99Ms is the p99 group-fsync latency observed pre-crash.
	FlushP99Ms float64
	// Pre-crash backend counters, for the bench report.
	NodesWritten uint64
	NodesDeduped uint64
	SegmentBytes uint64
}

// recoverProof is one pre-crash proof sample: a membership proof for a
// known IBC path at a retained historical version.
type recoverProof struct {
	version ibc.Version
	path    string
	value   []byte
	proof   []byte
}

// RecoverWindow is the injected fault of RunRecover: the pivotal
// validator goes dark for six hours starting at hour 24, long enough
// that several blocks are generated (and WAL-appended) with no
// finalisation fsync behind them.
func RecoverWindow() netsim.CrashWindow {
	return netsim.CrashWindow{
		Node:     netsim.ValidatorNode(0),
		From:     24 * time.Hour,
		Duration: 6 * time.Hour,
	}
}

// RunRecover runs the kill-and-recover chaos scenario against dir (a
// scratch directory; the WAL lands under dir/guest):
//
//  1. A four-validator disk-backed guest (validator 0 pivotal at 40%
//     stake) runs a steady transfer workload. Finalisation fsyncs the
//     WAL, so finalised ⇒ durable.
//  2. Validator 0 crashes via a netsim window; finalisation stalls while
//     block generation keeps appending unsynced commits.
//  3. Mid-window, the store is power-cut: the WAL is truncated to the
//     last durable byte, exactly as a kill -9 after a torn buffered
//     write would leave it.
//  4. The WAL is reopened cold. The recovered head must equal the last
//     finalised root, and membership proofs at retained historical
//     versions must be byte-identical to pre-crash proofs.
func RunRecover(seed int64, dir string) (*RecoverResult, error) {
	window := RecoverWindow()
	behaviours, stakes := pivotalFleet()

	net, err := core.NewNetwork(core.Config{
		Behaviours: behaviours,
		Stakes:     stakes,
		Seed:       seed,
		Net:        netsim.Config{Crashes: []netsim.CrashWindow{window}},
		Store: core.StoreSpec{
			Dir:           dir,
			ColdRetention: 16,
		},
	})
	if err != nil {
		return nil, err
	}
	u := net.NewUser("recover-sender", 1000*host.LamportsPerSOL, "GUEST", 1<<30)
	net.Sched.Every(30*time.Minute, func() bool {
		_, _ = net.SendTransferFromGuest(u, "cp-receiver", "GUEST", 1, "", fees.BundlePolicy, 0)
		return true
	})
	// Stop mid-window: finalisation has been stalled for hours, so the
	// WAL holds committed-but-unsynced roots past the durable prefix.
	net.Run(window.From + window.Duration/2)

	st, err := net.GuestState()
	if err != nil {
		return nil, err
	}
	if pe := st.PersistError(); pe != nil {
		return nil, fmt.Errorf("recover: pre-crash persistence error: %w", pe)
	}
	lf := st.LatestFinalised()
	if lf == nil {
		return nil, fmt.Errorf("recover: no finalised block before the cut")
	}
	res := &RecoverResult{
		Window:          window,
		HeadHeight:      st.Height(),
		FinalisedHeight: lf.Block.Height,
		LostBlocks:      int(st.Height() - lf.Block.Height),
	}
	finalRoot := lf.Block.StateRoot

	// Sample historical proofs at a spread of finalised heights using
	// paths guaranteed live since the handshake: the channel end and its
	// send-sequence counter.
	rt := net.Channels[0]
	paths := []string{
		string(ibc.ChannelPath(rt.Spec.GuestPort, rt.GuestChannel)),
		string(ibc.NextSequenceSendPath(rt.Spec.GuestPort, rt.GuestChannel)),
	}
	var samples []recoverProof
	for h := lf.Block.Height; h > 0 && len(samples) < 8; h-- {
		ro, err := st.SnapshotAt(h)
		if err != nil {
			continue // pruned or unfinalised
		}
		if entry, err := st.Entry(h); err != nil || !entry.Finalised {
			continue
		}
		for _, p := range paths {
			val, proof, err := ro.ProveMembership(p)
			if err != nil {
				return nil, fmt.Errorf("recover: pre-crash proof %q at height %d: %w", p, h, err)
			}
			samples = append(samples, recoverProof{ro.Version(), p, val, proof})
		}
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("recover: no retained finalised snapshots to sample")
	}

	disk, ok := net.GuestNodeStore.(*nodestore.Disk)
	if !ok {
		return nil, fmt.Errorf("recover: guest node store is not disk-backed")
	}
	preStats := disk.Stats()
	res.FlushP99Ms = preStats.SyncP99Ms
	res.NodesWritten = preStats.NodesWritten
	res.NodesDeduped = preStats.NodesDeduped
	res.SegmentBytes = preStats.BytesAppended

	// Power cut: truncate to the durable prefix and drop everything the
	// group fsync never covered.
	if err := disk.Crash(); err != nil {
		return nil, fmt.Errorf("recover: power cut: %w", err)
	}

	// Cold reopen: replay the WAL, restore the store.
	openStart := time.Now()
	reopened, err := nodestore.Open(filepath.Join(dir, "guest"), nodestore.DiskConfig{})
	if err != nil {
		return nil, fmt.Errorf("recover: reopen: %w", err)
	}
	store, err := ibc.NewStoreWithBackend(reopened)
	if err != nil {
		return nil, fmt.Errorf("recover: restore store: %w", err)
	}
	res.ColdOpenMs = float64(time.Since(openStart)) / float64(time.Millisecond)

	rec := reopened.Recovered()
	if rec == nil {
		return nil, fmt.Errorf("recover: reopened WAL holds no root records")
	}
	res.RecoveredHeight = rec.Head.Height
	res.RootMatch = rec.Head.Height == res.FinalisedHeight && rec.Head.Root == finalRoot
	res.RetainedRecovered = len(rec.Retained)

	// Regenerate each sampled proof from the recovered store and demand
	// byte identity.
	res.ProofsIdentical = true
	for _, s := range samples {
		ro, err := store.At(s.version)
		if err != nil {
			res.ProofsIdentical = false
			continue // version not durable — only possible for unsynced commits
		}
		val, proof, err := ro.ProveMembership(s.path)
		if err != nil || !bytes.Equal(val, s.value) || !bytes.Equal(proof, s.proof) {
			res.ProofsIdentical = false
			continue
		}
		res.ProofsChecked++
	}
	if res.ProofsChecked != len(samples) {
		res.ProofsIdentical = false
	}
	if err := store.CloseBackend(); err != nil {
		return nil, fmt.Errorf("recover: close reopened store: %w", err)
	}
	return res, nil
}
