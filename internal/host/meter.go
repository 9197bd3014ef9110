package host

import "fmt"

// Compute-unit costs for common operations, loosely mirroring Solana's
// syscall pricing. The absolute values matter only in that they make the
// 1.4M budget a binding constraint for large payloads, which is what forces
// chunked light-client updates.
const (
	// CUPerSHA256Block is charged per 64-byte block hashed.
	CUPerSHA256Block = 85
	// CUPerTrieNode is charged per trie node visited or written.
	CUPerTrieNode = 1_200
	// CUPerByteWritten is charged per byte written to account data.
	CUPerByteWritten = 10
	// CUBaseInstruction is the flat per-instruction charge.
	CUBaseInstruction = 5_000
)

// ComputeMeter tracks compute-unit consumption for one transaction.
type ComputeMeter struct {
	limit uint64
	used  uint64
}

// NewComputeMeter returns a meter with the given budget.
func NewComputeMeter(limit uint64) *ComputeMeter {
	return &ComputeMeter{limit: limit}
}

// Consume charges n units and fails once the budget is exhausted.
func (m *ComputeMeter) Consume(n uint64) error {
	m.used += n
	if m.used > m.limit {
		return fmt.Errorf("%w: used %d of %d", ErrComputeBudgetExceeded, m.used, m.limit)
	}
	return nil
}

// ConsumeHash charges for hashing n bytes.
func (m *ComputeMeter) ConsumeHash(n int) error {
	blocks := uint64(n/64) + 1
	return m.Consume(blocks * CUPerSHA256Block)
}

// Used returns the units consumed so far.
func (m *ComputeMeter) Used() uint64 { return m.used }

// Remaining returns the unused budget.
func (m *ComputeMeter) Remaining() uint64 {
	if m.used >= m.limit {
		return 0
	}
	return m.limit - m.used
}

// HeapMeter tracks program heap allocation against the 32 KiB default.
type HeapMeter struct {
	limit int
	used  int
}

// NewHeapMeter returns a meter with the given byte limit.
func NewHeapMeter(limit int) *HeapMeter { return &HeapMeter{limit: limit} }

// Alloc charges n bytes of heap.
func (m *HeapMeter) Alloc(n int) error {
	m.used += n
	if m.used > m.limit {
		return fmt.Errorf("%w: %d of %d bytes", ErrHeapExhausted, m.used, m.limit)
	}
	return nil
}

// Used returns bytes allocated so far.
func (m *HeapMeter) Used() int { return m.used }
