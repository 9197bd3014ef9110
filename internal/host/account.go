package host

import "fmt"

// Account is an entry in the host chain's account database. Following the
// Solana model, an account stores lamports and a fixed-size data region;
// the simulation does not record the program that owns it.
//
// Program-owned state accounts additionally carry State, an opaque native
// object, with DataSize declaring the on-chain footprint used for rent.
// This is a deliberate simulation shortcut: the paper's contract serializes
// its state into the 10 MiB account, while we keep the Go object live and
// charge rent on the declared size — the cost model (what the evaluation
// measures) is identical, the serialization code is not what the paper
// evaluates.
type Account struct {
	Lamports Lamports
	Data     []byte

	// State is the native state object for program accounts.
	State any
	// DataSize is the declared on-chain size in bytes (for rent); when 0
	// the length of Data is used.
	DataSize int
}

// Size returns the rent-relevant size of the account.
func (a *Account) Size() int {
	if a.DataSize > 0 {
		return a.DataSize
	}
	return len(a.Data)
}

// validateSize checks the account size limit.
func (a *Account) validateSize() error {
	if a.Size() > MaxAccountSize {
		return fmt.Errorf("host: account size %d exceeds maximum %d: %w", a.Size(), MaxAccountSize, ErrAccountTooLarge)
	}
	return nil
}
