package host

import "errors"

// Errors returned by the host chain.
var (
	// ErrTxTooLarge is returned when a transaction exceeds
	// MaxTransactionSize.
	ErrTxTooLarge = errors.New("host: transaction exceeds size limit")
	// ErrTooManySignatures is returned when a transaction carries more
	// signatures than fit.
	ErrTooManySignatures = errors.New("host: too many signatures")
	// ErrComputeBudgetExceeded is returned when execution runs out of
	// compute units.
	ErrComputeBudgetExceeded = errors.New("host: compute budget exceeded")
	// ErrHeapExhausted is returned when a program exceeds its heap limit.
	ErrHeapExhausted = errors.New("host: heap limit exceeded")
	// ErrUnknownProgram is returned when an instruction targets an
	// unregistered program.
	ErrUnknownProgram = errors.New("host: unknown program")
	// ErrUnknownAccount is returned when a referenced account does not
	// exist.
	ErrUnknownAccount = errors.New("host: unknown account")
	// ErrInsufficientFunds is returned when the fee payer cannot cover
	// fees or a transfer.
	ErrInsufficientFunds = errors.New("host: insufficient funds")
	// ErrAccountTooLarge is returned when an account would exceed the
	// 10 MiB limit.
	ErrAccountTooLarge = errors.New("host: account too large")
	// ErrMissingSigner is returned when a required signer did not sign.
	ErrMissingSigner = errors.New("host: missing required signer")
	// ErrDuplicateTransaction is returned when a transaction is submitted
	// again after the chain already accepted it — the replay protection
	// that lets network-level retries compose with at-most-once execution.
	ErrDuplicateTransaction = errors.New("host: duplicate transaction")
	// ErrMempoolFull is returned by Submit when the mempool admission
	// limit is reached. Open-loop load generators treat it as an explicit
	// reject signal (backpressure) instead of queueing without bound.
	ErrMempoolFull = errors.New("host: mempool full")
)
