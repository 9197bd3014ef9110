package host

import (
	"fmt"

	"repro/internal/cryptoutil"
)

// SigVerify is an Ed25519 verification request carried at transaction level
// — the analogue of Solana's native ed25519 program. Verification happens
// before instructions execute and is charged per signature in fees (the
// "additional 0.1 ¢ per signature" of §V-B) and in transaction size, but
// not in compute units. This is the workaround that makes checking dozens
// of validator signatures feasible under the 1.4M CU budget (§IV).
type SigVerify struct {
	Pub cryptoutil.PubKey
	Msg []byte
	Sig cryptoutil.Signature
}

// precompileSigSize is the serialized footprint of one verification
// request: signature (64) + pubkey (32) + offsets/length header (14).
func precompileSigSize(msgLen int) int { return 64 + 32 + 14 + msgLen }

// digest identifies a verified (pubkey, message) pair.
func (s *SigVerify) digest() cryptoutil.Hash {
	return cryptoutil.HashTagged('P', s.Pub[:], s.Msg)
}

// PrecompileVerified reports whether the current transaction carried a
// valid precompile verification of (pub, msg). Programs use this instead of
// in-contract verification when the compute budget would not allow it.
func (ctx *ExecContext) PrecompileVerified(pub cryptoutil.PubKey, msg []byte) bool {
	probe := SigVerify{Pub: pub, Msg: msg}
	return ctx.verified[probe.digest()]
}

// runPrecompiles verifies all transaction-level signature requests,
// returning the set of verified digests or an error that fails the tx.
// Like the real runtime — which verifies a transaction's signatures before
// its instructions run — the requests are checked as one batch by the
// shared verifier, whose cache absorbs re-submissions of the same chunked
// light-client update.
func runPrecompiles(tx *Transaction) (map[cryptoutil.Hash]bool, error) {
	if len(tx.PrecompileSigs) == 0 {
		return nil, nil
	}
	tasks := make([]cryptoutil.VerifyTask, len(tx.PrecompileSigs))
	for i := range tx.PrecompileSigs {
		sv := &tx.PrecompileSigs[i]
		tasks[i] = cryptoutil.VerifyTask{Pub: sv.Pub, Msg: sv.Msg, Sig: sv.Sig}
	}
	for i, ok := range cryptoutil.DefaultBatchVerifier().VerifyEach(tasks) {
		if !ok {
			return nil, fmt.Errorf("host: precompile signature %d invalid", i)
		}
	}
	out := make(map[cryptoutil.Hash]bool, len(tx.PrecompileSigs))
	for i := range tx.PrecompileSigs {
		out[tx.PrecompileSigs[i].digest()] = true
	}
	return out, nil
}
