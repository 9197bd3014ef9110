package middleware_test

import (
	"testing"

	"repro/internal/middleware"
	"repro/internal/routing"
)

// FuzzForwardMemo feeds arbitrary strings to ParseForwardMemo (a transfer
// memo is whatever the sender wrote): it never panics, and every forward
// instruction it accepts survives ForwardMemo and a second parse
// unchanged — which also exercises ForwardMemo on every string a parse
// can yield. The seeds are the nested memos routing.Plan builds for a
// four-chain line.
func FuzzForwardMemo(f *testing.F) {
	tab := routing.NewTable([]routing.Link{
		{A: "guest", B: "a", PortA: "transfer", PortB: "transfer", ChannelA: "channel-0", ChannelB: "channel-0"},
		{A: "a", B: "b", PortA: "transfer", PortB: "transfer", ChannelA: "channel-1", ChannelB: "channel-0"},
		{A: "b", B: "c", PortA: "transfer", PortB: "transfer", ChannelA: "channel-1", ChannelB: "channel-0"},
	})
	for _, dst := range []string{"a", "b", "c"} {
		hops, err := tab.Route("guest", dst)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(routing.Plan(hops, "carol", "forward-module", "hello").Memo)
	}
	f.Add("")
	f.Add(`{"forward":{"port":"p"}}`)
	f.Add("{\"forward\":{\"port\":\"\\ud800\",\"channel\":\"c\",\"receiver\":\"\xff\"}}") // lone surrogate, invalid UTF-8
	f.Fuzz(func(t *testing.T, memo string) {
		info := middleware.ParseForwardMemo(memo)
		if info == nil {
			return
		}
		again := middleware.ParseForwardMemo(middleware.ForwardMemo(*info))
		if again == nil || *again != *info {
			t.Fatalf("memo %q parses to %+v, which round-trips to %+v", memo, *info, again)
		}
	})
}
