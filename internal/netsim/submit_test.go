package netsim

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/cryptoutil"
	"repro/internal/host"
)

// logProgram records the first byte of each instruction it executes, in
// execution order, and fails on 0xff.
type logProgram struct {
	id  host.ProgramID
	ran *[]byte
}

func (p logProgram) ID() host.ProgramID { return p.id }

func (p logProgram) Execute(_ *host.ExecContext, ins host.Instruction) error {
	if ins.Data[0] == 0xff {
		return errors.New("refused")
	}
	*p.ran = append(*p.ran, ins.Data[0])
	return nil
}

// TestHostFrontEndAdmitsInOrder: an ordered submission's transactions are
// admitted in order behind what arrived before it, and execute in that
// order in one block, each on its own — one that fails takes nothing else
// with it. A retry of the submission acknowledges the copies already
// admitted and admits only what is new.
func TestHostFrontEndAdmitsInOrder(t *testing.T) {
	chain := host.NewChain(host.NewManualClock(t0))
	var ran []byte
	prog := logProgram{id: cryptoutil.GenerateKey("log-program").Public(), ran: &ran}
	chain.RegisterProgram(prog)
	payer := cryptoutil.GenerateKey("payer").Public()
	chain.Fund(payer, host.LamportsPerSOL)
	tx := func(b byte) *host.Transaction {
		return &host.Transaction{FeePayer: payer, Label: "log", Instructions: []host.Instruction{{Program: prog.id, Data: []byte{b}}}}
	}
	serve := HostFrontEnd(chain)
	submit := func(txs ...*host.Transaction) error {
		_, err := serve(RelayerNode, KindSubmitTx, MsgSubmitTx{Txs: txs})
		return err
	}

	first, refused, last := tx(2), tx(0xff), tx(3)
	if err := submit(tx(1)); err != nil {
		t.Fatal(err)
	}
	if err := submit(first, refused, last); err != nil {
		t.Fatal(err)
	}
	block := chain.ProduceBlock()
	if want := []byte{1, 2, 3}; !slices.Equal(ran, want) {
		t.Errorf("executed %v, want %v", ran, want)
	}
	var failed []int
	for i, r := range block.Results {
		if r.Err != nil {
			failed = append(failed, i)
		}
	}
	if len(block.Results) != 4 || !slices.Equal(failed, []int{2}) {
		t.Errorf("%d results, failed at %v; want 4, only the third", len(block.Results), failed)
	}

	// The reply was lost: the relayer sends the submission again with one
	// more transaction.
	if err := submit(first, refused, last, tx(4)); err != nil {
		t.Fatalf("retried submission = %v, want its duplicates acknowledged", err)
	}
	chain.ProduceBlock()
	if want := []byte{1, 2, 3, 4}; !slices.Equal(ran, want) {
		t.Errorf("executed %v after the retry, want %v: each duplicate once", ran, want)
	}

	// A transaction the host refuses to admit stops the submission there.
	oversized := tx(5)
	oversized.Instructions[0].Data = make([]byte, host.MaxTransactionSize)
	if err := submit(tx(6), oversized, tx(7)); err == nil {
		t.Fatal("an oversized transaction was admitted")
	}
	chain.ProduceBlock()
	if want := []byte{1, 2, 3, 4, 6}; !slices.Equal(ran, want) {
		t.Errorf("executed %v, want %v: admission stops at the refused transaction", ran, want)
	}
}
