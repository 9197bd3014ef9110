package host

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/telemetry"
)

// Program is a smart contract registered on the host chain.
type Program interface {
	// ID returns the program's address.
	ID() ProgramID
	// Execute runs one instruction. Mutations must go through ctx;
	// returning an error aborts the whole transaction.
	Execute(ctx *ExecContext, ins Instruction) error
}

// ExecContext is the environment a program executes in.
type ExecContext struct {
	chain   *Chain
	sink    *eventSink
	program ProgramID
	tx      *Transaction

	// Meter is the transaction's compute meter, shared by all
	// instructions.
	Meter *ComputeMeter
	// Heap is the per-invocation heap meter.
	Heap *HeapMeter
	// Slot is the slot being produced.
	Slot Slot
	// Time is the block timestamp.
	Time time.Time

	// signers is the set of transaction-level signers.
	signers map[cryptoutil.PubKey]bool
	// verified is the set of precompile-verified (pubkey, msg) digests.
	verified map[cryptoutil.Hash]bool
}

// Emit appends a typed event to the block log (dropped if the tx fails).
func (ctx *ExecContext) Emit(ev telemetry.Event) {
	ctx.sink.emit(ctx.program, ev)
}

// Account returns the account with the given key, or ErrUnknownAccount.
func (ctx *ExecContext) Account(key cryptoutil.PubKey) (*Account, error) {
	acc, ok := ctx.chain.accounts[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownAccount, key.Short())
	}
	return acc, nil
}

// IsSigner reports whether key signed the current transaction.
func (ctx *ExecContext) IsSigner(key cryptoutil.PubKey) bool { return ctx.signers[key] }

// FeePayer returns the transaction's fee payer.
func (ctx *ExecContext) FeePayer() cryptoutil.PubKey { return ctx.tx.FeePayer }

// Transfer moves lamports between accounts; the source must have signed.
func (ctx *ExecContext) Transfer(from, to cryptoutil.PubKey, amount Lamports) error {
	if !ctx.IsSigner(from) {
		return fmt.Errorf("%w: %s", ErrMissingSigner, from.Short())
	}
	src, err := ctx.Account(from)
	if err != nil {
		return err
	}
	if src.Lamports < amount {
		return fmt.Errorf("%w: %s has %d, needs %d", ErrInsufficientFunds, from.Short(), src.Lamports, amount)
	}
	dst := ctx.chain.getOrCreateAccount(to)
	src.Lamports -= amount
	dst.Lamports += amount
	return nil
}

// Credit mints lamports into an account (program-internal accounting such
// as fee refunds; test funding goes through Chain.Fund).
func (ctx *ExecContext) Credit(to cryptoutil.PubKey, amount Lamports) {
	ctx.chain.getOrCreateAccount(to).Lamports += amount
}

// Debit removes lamports from an account owned by the executing program.
func (ctx *ExecContext) Debit(from cryptoutil.PubKey, amount Lamports) error {
	src, err := ctx.Account(from)
	if err != nil {
		return err
	}
	if src.Lamports < amount {
		return fmt.Errorf("%w: %s has %d, needs %d", ErrInsufficientFunds, from.Short(), src.Lamports, amount)
	}
	src.Lamports -= amount
	return nil
}

// pendingTx is a queued transaction with its submission slot.
type pendingTx struct {
	tx        *Transaction
	submitted Slot
	seq       int // arrival order tiebreak
}

// Chain is the simulated host blockchain.
//
// Transactions are submitted into a mempool and executed at the next slot
// boundary, ordered by (bundle tip, priority fee, arrival). All methods are
// safe for concurrent use.
type Chain struct {
	mu sync.Mutex

	clock       Clock
	profile     Profile
	genesisTime time.Time
	slot        Slot
	accounts    map[cryptoutil.PubKey]*Account
	programs    map[ProgramID]Program
	mempool     []pendingTx
	seq         int

	// mempoolLimit bounds the admission queue (0 = unlimited). When the
	// queue is full, Submit rejects with ErrMempoolFull instead of growing
	// without bound — the bounded-queue half of the open-loop load
	// harness's admission control.
	mempoolLimit int

	// onSubmit, when set, is called after each successful Submit — the
	// simulation runner uses it to schedule on-demand block production.
	onSubmit func()

	// Replay protection: recently accepted transactions by identity, so a
	// retried submission (reply lost, tx landed) is rejected instead of
	// executed twice. A real chain dedups on the tx hash; the simulated
	// Transaction has no hash, so pointer identity plays that role.
	seenTxs    map[*Transaction]struct{}
	seenTxRing []*Transaction
	seenTxPos  int

	blocks []*Block
	// keepBlocks bounds retained history (0 = keep everything).
	keepBlocks int
	// prunedBlocks counts blocks discarded from the front of the history.
	prunedBlocks int

	// Telemetry instruments; nil (no-op) until SetTelemetry is called.
	txsExecuted     *telemetry.Counter
	feesCharged     *telemetry.Counter
	txCompute       *telemetry.Histogram
	mempoolRejected *telemetry.Counter
	mempoolShed     *telemetry.Counter
}

// NewChain creates a host chain on the given clock with the Solana
// profile (§IV).
func NewChain(clock Clock) *Chain {
	return NewChainWithProfile(clock, SolanaProfile())
}

// NewChainWithProfile creates a host chain with custom runtime constraints
// (§VI-D host portability).
func NewChainWithProfile(clock Clock, profile Profile) *Chain {
	return &Chain{
		clock:       clock,
		profile:     profile,
		genesisTime: clock.Now(),
		accounts:    make(map[cryptoutil.PubKey]*Account),
		programs:    make(map[ProgramID]Program),
	}
}

// Profile returns the chain's runtime constraints.
func (c *Chain) Profile() Profile { return c.profile }

// SetTelemetry registers the chain's transaction, fee, compute, and mempool
// instruments in reg under the "host." prefix.
func (c *Chain) SetTelemetry(reg *telemetry.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.txsExecuted = reg.Counter("host.txs_executed")
	c.feesCharged = reg.Counter("host.fees_lamports")
	c.txCompute = reg.Histogram("host.tx_compute_units")
	c.mempoolRejected = reg.Counter("host.mempool_rejected")
	c.mempoolShed = reg.Counter("host.mempool_shed")
}

// SetMempoolLimit bounds the mempool admission queue; Submit rejects with
// ErrMempoolFull beyond it. 0 restores the unlimited default.
func (c *Chain) SetMempoolLimit(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mempoolLimit = n
}

// MempoolFree returns how many more transactions the mempool admits before
// Submit starts rejecting, or -1 when the mempool is unlimited.
func (c *Chain) MempoolFree() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.mempoolLimit <= 0 {
		return -1
	}
	free := c.mempoolLimit - len(c.mempool)
	if free < 0 {
		free = 0
	}
	return free
}

// SetSubmitHook registers a callback fired after each successful Submit.
func (c *Chain) SetSubmitHook(fn func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onSubmit = fn
}

// SetBlockRetention bounds how many recent blocks the chain keeps; long
// simulations use this to keep memory flat.
func (c *Chain) SetBlockRetention(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.keepBlocks = n
}

// RegisterProgram deploys a program.
func (c *Chain) RegisterProgram(p Program) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.programs[p.ID()] = p
}

// MoveLamports transfers between accounts outside a transaction (genesis
// and deployment wiring only; runtime transfers go through ExecContext).
func (c *Chain) MoveLamports(from, to cryptoutil.PubKey, amount Lamports) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	src, ok := c.accounts[from]
	if !ok || src.Lamports < amount {
		return fmt.Errorf("%w: %s moving %d", ErrInsufficientFunds, from.Short(), amount)
	}
	src.Lamports -= amount
	c.getOrCreateAccount(to).Lamports += amount
	return nil
}

// Fund credits lamports to an account, creating it if needed (faucet).
func (c *Chain) Fund(key cryptoutil.PubKey, amount Lamports) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.getOrCreateAccount(key).Lamports += amount
}

// Balance returns an account's lamports (0 if absent).
func (c *Chain) Balance(key cryptoutil.PubKey) Lamports {
	c.mu.Lock()
	defer c.mu.Unlock()
	if acc, ok := c.accounts[key]; ok {
		return acc.Lamports
	}
	return 0
}

// CreateStateAccount creates a program-owned account with a declared size,
// funded with the rent-exempt deposit from payer. This models the paper's
// one-off 10 MiB allocation (§V-D).
func (c *Chain) CreateStateAccount(payer, key cryptoutil.PubKey, owner ProgramID, size int, state any) (Lamports, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	acc := &Account{Key: key, Owner: owner, State: state, DataSize: size}
	if err := acc.validateSize(); err != nil {
		return 0, err
	}
	deposit := RentExemptBalance(size)
	p, ok := c.accounts[payer]
	if !ok || p.Lamports < deposit {
		return 0, fmt.Errorf("%w: need %d lamports for rent-exempt deposit", ErrInsufficientFunds, deposit)
	}
	p.Lamports -= deposit
	acc.Lamports = deposit
	c.accounts[key] = acc
	return deposit, nil
}

// ResizeStateAccount changes a state account's declared size, settling the
// rent-exempt deposit difference with the payer (deposit is recoverable
// when the account shrinks, as §V-D notes).
func (c *Chain) ResizeStateAccount(payer, key cryptoutil.PubKey, newSize int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	acc, ok := c.accounts[key]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownAccount, key.Short())
	}
	if newSize > MaxAccountSize {
		return ErrAccountTooLarge
	}
	oldDep := RentExemptBalance(acc.Size())
	newDep := RentExemptBalance(newSize)
	p := c.getOrCreateAccount(payer)
	if newDep > oldDep {
		diff := newDep - oldDep
		if p.Lamports < diff {
			return fmt.Errorf("%w: need %d more lamports", ErrInsufficientFunds, diff)
		}
		p.Lamports -= diff
		acc.Lamports += diff
	} else {
		diff := oldDep - newDep
		acc.Lamports -= diff
		p.Lamports += diff
	}
	acc.DataSize = newSize
	return nil
}

// StateOf returns the native state object of a program account.
func (c *Chain) StateOf(key cryptoutil.PubKey) (any, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	acc, ok := c.accounts[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownAccount, key.Short())
	}
	return acc.State, nil
}

func (c *Chain) getOrCreateAccount(key cryptoutil.PubKey) *Account {
	if acc, ok := c.accounts[key]; ok {
		return acc
	}
	acc := &Account{Key: key}
	c.accounts[key] = acc
	return acc
}

// Submit queues a transaction for the next slot. Static validation happens
// immediately against the chain's profile; execution errors surface in the
// TxResult.
func (c *Chain) Submit(tx *Transaction) error {
	if err := tx.Validate(c.profile); err != nil {
		return err
	}
	c.mu.Lock()
	if _, dup := c.seenTxs[tx]; dup {
		c.mu.Unlock()
		return ErrDuplicateTransaction
	}
	if c.mempoolLimit > 0 && len(c.mempool) >= c.mempoolLimit {
		c.mempoolRejected.Inc()
		c.mu.Unlock()
		return ErrMempoolFull
	}
	c.rememberTxLocked(tx)
	c.seq++
	c.mempool = append(c.mempool, pendingTx{tx: tx, submitted: c.slot, seq: c.seq})
	hook := c.onSubmit
	c.mu.Unlock()
	if hook != nil {
		hook()
	}
	return nil
}

// seenTxWindow bounds the replay-protection memory (like a recent-
// blockhash window); old entries age out ring-buffer style.
const seenTxWindow = 4096

// rememberTxLocked records an accepted transaction for replay detection.
func (c *Chain) rememberTxLocked(tx *Transaction) {
	if c.seenTxs == nil {
		c.seenTxs = make(map[*Transaction]struct{}, seenTxWindow)
		c.seenTxRing = make([]*Transaction, seenTxWindow)
	}
	if old := c.seenTxRing[c.seenTxPos]; old != nil {
		delete(c.seenTxs, old)
	}
	c.seenTxRing[c.seenTxPos] = tx
	c.seenTxPos = (c.seenTxPos + 1) % seenTxWindow
	c.seenTxs[tx] = struct{}{}
}

// PendingCount returns the mempool size.
func (c *Chain) PendingCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.mempool)
}

// Slot returns the current slot number.
func (c *Chain) Slot() Slot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.slot
}

// Now returns the chain clock's current time.
func (c *Chain) Now() time.Time { return c.clock.Now() }

// ProduceBlock executes the mempool (highest tip/priority first) within the
// slot's compute budget and appends a block. Unexecuted transactions stay
// queued for the next slot.
func (c *Chain) ProduceBlock() *Block {
	block, shed := c.produceBlockLocked()
	// Shed notifications run outside the lock: hooks typically roll back
	// application-side bookkeeping (escrow refunds) and may re-enter the
	// chain. Order follows arrival order within the mempool, so reruns of
	// the same seed shed — and refund — identically.
	for _, tx := range shed {
		if tx.OnShed != nil {
			tx.OnShed(tx)
		}
	}
	return block
}

func (c *Chain) produceBlockLocked() (*Block, []*Transaction) {
	c.mu.Lock()
	defer c.mu.Unlock()

	// Slots are wall-clock-derived so that on-demand block production
	// (the simulation runner skips empty slots) keeps slot numbers — and
	// with them epoch lengths measured in host slots — aligned with time.
	now := c.clock.Now()
	slot := Slot(now.Sub(c.genesisTime)/c.profile.SlotDuration) + 1
	if slot <= c.slot {
		slot = c.slot + 1
	}
	c.slot = slot
	block := &Block{Slot: c.slot, Time: now}

	// Deadline shedding: transactions that waited past their deadline are
	// dropped before ordering — under overload the stalest work is shed
	// instead of wasting block budget on requests nobody is waiting for.
	// OnShed hooks run after the lock is released (they may re-enter).
	var shed []*Transaction
	if c.anyDeadlineLocked() {
		kept := c.mempool[:0]
		for _, ptx := range c.mempool {
			if !ptx.tx.Deadline.IsZero() && now.After(ptx.tx.Deadline) {
				shed = append(shed, ptx.tx)
				continue
			}
			kept = append(kept, ptx)
		}
		for i := len(kept); i < len(c.mempool); i++ {
			c.mempool[i] = pendingTx{}
		}
		c.mempool = kept
		c.mempoolShed.Add(uint64(len(shed)))
	}

	// Order: bundle tips first (bundles jump the queue), then priority
	// fee, then arrival order.
	sort.SliceStable(c.mempool, func(i, j int) bool {
		a, b := c.mempool[i], c.mempool[j]
		if (a.tx.BundleTip > 0) != (b.tx.BundleTip > 0) {
			return a.tx.BundleTip > 0
		}
		if a.tx.BundleTip != b.tx.BundleTip {
			return a.tx.BundleTip > b.tx.BundleTip
		}
		if a.tx.PriorityFee != b.tx.PriorityFee {
			return a.tx.PriorityFee > b.tx.PriorityFee
		}
		return a.seq < b.seq
	})

	var budget uint64
	var rest []pendingTx
	for i := range c.mempool {
		if budget >= c.profile.BlockComputeBudget {
			rest = append(rest, c.mempool[i:]...)
			break
		}
		res := c.executeLocked(c.mempool[i].tx, block)
		budget += res.Units
		block.Results = append(block.Results, res)
	}
	c.mempool = rest

	c.blocks = append(c.blocks, block)
	if c.keepBlocks > 0 && len(c.blocks) > c.keepBlocks {
		drop := len(c.blocks) - c.keepBlocks
		// Reslice, do not copy the window on every block: the dropped
		// pointers are cleared so their blocks can be collected, and
		// append moves the live window to a fresh array whenever this
		// one's tail runs out.
		clear(c.blocks[:drop])
		c.blocks = c.blocks[drop:]
		c.prunedBlocks += drop
	}
	return block, shed
}

// anyDeadlineLocked reports whether any queued transaction carries a
// deadline, so deadline-free workloads skip the shedding pass entirely.
func (c *Chain) anyDeadlineLocked() bool {
	for i := range c.mempool {
		if !c.mempool[i].tx.Deadline.IsZero() {
			return true
		}
	}
	return false
}

// executeLocked runs one transaction atomically: it verifies the
// transaction's precompile signatures, then runs its instructions. A
// transaction the block budget defers is not executed in that block, so
// its signatures are verified once, in the block that runs it. State
// mutations performed by programs are applied directly; on error the
// native state objects are responsible for their own rollback (the Guest
// Contract stages mutations accordingly), while fee charging always
// happens.
func (c *Chain) executeLocked(tx *Transaction, block *Block) TxResult {
	res := TxResult{
		Slot:     block.Slot,
		Index:    len(block.Results),
		Label:    tx.Label,
		NumSigs:  tx.NumSignatures(),
		Size:     tx.Size(),
		FeePayer: tx.FeePayer,
	}

	payer := c.getOrCreateAccount(tx.FeePayer)
	fee := tx.Fee(c.profile)
	if payer.Lamports < fee {
		res.Err = fmt.Errorf("%w: fee %d > balance %d", ErrInsufficientFunds, fee, payer.Lamports)
		c.txsExecuted.Inc()
		return res
	}
	payer.Lamports -= fee
	res.Fee = fee

	sink := &eventSink{}
	meter := NewComputeMeter(c.profile.MaxComputeUnits)
	signers := map[cryptoutil.PubKey]bool{tx.FeePayer: true}
	for _, s := range tx.ExtraSigners {
		signers[s] = true
	}

	verified, err := runPrecompiles(tx)
	if err != nil {
		res.Err = err
		c.txsExecuted.Inc()
		c.feesCharged.Add(uint64(fee))
		return res
	}

	for i := range tx.Instructions {
		ins := tx.Instructions[i]
		prog, ok := c.programs[ins.Program]
		if !ok {
			res.Err = fmt.Errorf("%w: %s", ErrUnknownProgram, ins.Program.Short())
			break
		}
		if err := meter.Consume(CUBaseInstruction); err != nil {
			res.Err = err
			break
		}
		ctx := &ExecContext{
			chain:    c,
			sink:     sink,
			program:  ins.Program,
			tx:       tx,
			Meter:    meter,
			Heap:     NewHeapMeter(MaxHeapBytes),
			Slot:     block.Slot,
			Time:     block.Time,
			signers:  signers,
			verified: verified,
		}
		if err := prog.Execute(ctx, ins); err != nil {
			res.Err = err
			break
		}
	}
	res.Units = meter.Used()
	c.txsExecuted.Inc()
	c.feesCharged.Add(uint64(fee))
	c.txCompute.Observe(float64(res.Units))

	if res.Err == nil {
		for i := range sink.events {
			sink.events[i].Slot = block.Slot
			sink.events[i].Time = block.Time
		}
		block.Events = append(block.Events, sink.events...)
	}
	return res
}

// BlocksSince returns blocks with slot > after, for event polling.
func (c *Chain) BlocksSince(after Slot) []*Block {
	c.mu.Lock()
	defer c.mu.Unlock()
	idx := sort.Search(len(c.blocks), func(i int) bool { return c.blocks[i].Slot > after })
	if idx >= len(c.blocks) {
		return nil
	}
	out := make([]*Block, len(c.blocks)-idx)
	copy(out, c.blocks[idx:])
	return out
}

// BlockAt returns the block at the given slot, if retained.
func (c *Chain) BlockAt(slot Slot) (*Block, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	idx := sort.Search(len(c.blocks), func(i int) bool { return c.blocks[i].Slot >= slot })
	if idx >= len(c.blocks) || c.blocks[idx].Slot != slot {
		return nil, errors.New("host: block not retained")
	}
	return c.blocks[idx], nil
}
