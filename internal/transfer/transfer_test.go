package transfer

import (
	"encoding/json"
	"testing"

	"repro/internal/ibc"
)

func pkt(srcChan, dstChan ibc.ChannelID, d *PacketData) ibc.Packet {
	return ibc.Packet{
		Sequence:      1,
		SourcePort:    "transfer",
		SourceChannel: srcChan,
		DestPort:      "transfer",
		DestChannel:   dstChan,
		Data:          d.Marshal(),
	}
}

// supply is every unit of denom a holds: account balances plus escrow.
func supply(a *App, denom string) uint64 {
	var n uint64
	for _, b := range a.balances {
		n += b[denom]
	}
	for _, esc := range a.escrow {
		n += esc[denom]
	}
	return n
}

func TestEscrowAndMint(t *testing.T) {
	src := New("transfer")
	dst := New("transfer")
	src.Mint("alice", "SOL", 1000)

	d := &PacketData{Denom: "SOL", Amount: 400, Sender: "alice", Receiver: "bob"}
	if err := src.PrepareSend("channel-0", d); err != nil {
		t.Fatal(err)
	}
	if src.Balance("alice", "SOL") != 600 {
		t.Fatalf("alice = %d", src.Balance("alice", "SOL"))
	}
	if src.EscrowedAmount("channel-0", "SOL") != 400 {
		t.Fatalf("escrow = %d", src.EscrowedAmount("channel-0", "SOL"))
	}
	ack, err := dst.OnRecvPacket(pkt("channel-0", "channel-5", d))
	if err != nil {
		t.Fatal(err)
	}
	if !IsSuccessAck(ack) {
		t.Fatalf("ack = %s", ack)
	}
	if dst.Balance("bob", "transfer/channel-5/SOL") != 400 {
		t.Fatal("voucher not minted")
	}
	if got := supply(dst, "transfer/channel-5/SOL"); got != 400 {
		t.Fatalf("voucher supply = %d, want 400 (minted once)", got)
	}
	if got := supply(src, "SOL"); got != 1000 {
		t.Fatalf("SOL supply = %d, want 1000 (escrowed, not destroyed)", got)
	}
}

func TestVoucherReturnsHome(t *testing.T) {
	src := New("transfer")
	dst := New("transfer")
	src.Mint("alice", "SOL", 1000)

	// SOL travels src(channel-0) -> dst(channel-5).
	d := &PacketData{Denom: "SOL", Amount: 300, Sender: "alice", Receiver: "bob"}
	if err := src.PrepareSend("channel-0", d); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.OnRecvPacket(pkt("channel-0", "channel-5", d)); err != nil {
		t.Fatal(err)
	}

	// Voucher goes home dst(channel-5) -> src(channel-0): burn + unescrow.
	voucher := "transfer/channel-5/SOL"
	back := &PacketData{Denom: voucher, Amount: 300, Sender: "bob", Receiver: "alice"}
	if err := dst.PrepareSend("channel-5", back); err != nil {
		t.Fatal(err)
	}
	if dst.Balance("bob", voucher) != 0 {
		t.Fatal("voucher not burned")
	}
	if got := supply(dst, voucher); got != 0 {
		t.Fatalf("voucher supply = %d after the burn, want 0", got)
	}
	ack, err := src.OnRecvPacket(pkt("channel-5", "channel-0", back))
	if err != nil {
		t.Fatal(err)
	}
	if !IsSuccessAck(ack) {
		t.Fatalf("ack = %s", ack)
	}
	if src.Balance("alice", "SOL") != 1000 {
		t.Fatalf("alice = %d, want full 1000 back", src.Balance("alice", "SOL"))
	}
	if src.EscrowedAmount("channel-0", "SOL") != 0 {
		t.Fatal("escrow not released")
	}
}

func TestInsufficientFundsRejected(t *testing.T) {
	app := New("transfer")
	app.Mint("alice", "SOL", 10)
	d := &PacketData{Denom: "SOL", Amount: 100, Sender: "alice", Receiver: "bob"}
	if err := app.PrepareSend("channel-0", d); err == nil {
		t.Fatal("overdraft accepted")
	}
}

func TestRecvInsufficientEscrowAcksError(t *testing.T) {
	app := New("transfer")
	// A voucher "returning" without matching escrow must produce an error
	// ack, not a panic or a mint.
	back := &PacketData{Denom: "transfer/channel-9/SOL", Amount: 50, Sender: "eve", Receiver: "eve2"}
	ack, err := app.OnRecvPacket(pkt("channel-9", "channel-0", back))
	if err != nil {
		t.Fatal(err)
	}
	if IsSuccessAck(ack) {
		t.Fatal("unbacked unescrow succeeded")
	}
}

func TestMalformedDataAcksError(t *testing.T) {
	app := New("transfer")
	p := ibc.Packet{
		Sequence: 1, SourcePort: "transfer", SourceChannel: "channel-0",
		DestPort: "transfer", DestChannel: "channel-1", Data: []byte("not json"),
	}
	ack, err := app.OnRecvPacket(p)
	if err != nil {
		t.Fatal(err)
	}
	if IsSuccessAck(ack) {
		t.Fatal("malformed packet acked as success")
	}
}

func TestErrorAckRefunds(t *testing.T) {
	app := New("transfer")
	app.Mint("alice", "SOL", 500)
	d := &PacketData{Denom: "SOL", Amount: 200, Sender: "alice", Receiver: "bob"}
	if err := app.PrepareSend("channel-0", d); err != nil {
		t.Fatal(err)
	}
	p := pkt("channel-0", "channel-5", d)
	if err := app.OnAcknowledgementPacket(p, AckError("failed over there")); err != nil {
		t.Fatal(err)
	}
	if app.Balance("alice", "SOL") != 500 {
		t.Fatalf("alice = %d after refund", app.Balance("alice", "SOL"))
	}
	if app.EscrowedAmount("channel-0", "SOL") != 0 {
		t.Fatal("escrow not released on refund")
	}
	if got := supply(app, "SOL"); got != 500 {
		t.Fatalf("SOL supply = %d after the refund, want 500 (refunded once)", got)
	}
}

func TestSuccessAckDoesNotRefund(t *testing.T) {
	app := New("transfer")
	app.Mint("alice", "SOL", 500)
	d := &PacketData{Denom: "SOL", Amount: 200, Sender: "alice", Receiver: "bob"}
	if err := app.PrepareSend("channel-0", d); err != nil {
		t.Fatal(err)
	}
	if err := app.OnAcknowledgementPacket(pkt("channel-0", "channel-5", d), AckSuccess); err != nil {
		t.Fatal(err)
	}
	if app.Balance("alice", "SOL") != 300 {
		t.Fatal("success ack refunded")
	}
}

func TestTimeoutRefundsBurnedVoucher(t *testing.T) {
	app := New("transfer")
	voucher := "transfer/channel-0/PICA"
	app.Mint("bob", voucher, 80)
	d := &PacketData{Denom: voucher, Amount: 80, Sender: "bob", Receiver: "alice"}
	if err := app.PrepareSend("channel-0", d); err != nil {
		t.Fatal(err)
	}
	if app.Balance("bob", voucher) != 0 {
		t.Fatal("voucher not burned")
	}
	if err := app.OnTimeoutPacket(pkt("channel-0", "channel-5", d)); err != nil {
		t.Fatal(err)
	}
	if app.Balance("bob", voucher) != 80 {
		t.Fatal("burned voucher not restored on timeout")
	}
}

func TestPacketDataValidation(t *testing.T) {
	cases := []PacketData{
		{Denom: "", Amount: 1, Sender: "a", Receiver: "b"},
		{Denom: "X", Amount: 0, Sender: "a", Receiver: "b"},
		{Denom: "X", Amount: 1, Sender: "", Receiver: "b"},
		{Denom: "X", Amount: 1, Sender: "a", Receiver: ""},
	}
	for i, c := range cases {
		if _, err := UnmarshalPacketData(c.Marshal()); err == nil {
			t.Fatalf("case %d accepted: %+v", i, c)
		}
	}
	good := PacketData{Denom: "X", Amount: 1, Sender: "a", Receiver: "b", Memo: "m"}
	got, err := UnmarshalPacketData(good.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if *got != good {
		t.Fatalf("round trip changed data: %+v", got)
	}
}

// FuzzPacketDataMarshal: PacketData.Marshal never panics — json.Marshal
// of the plain struct cannot fail, whatever its strings hold — and what it
// writes decodes to the same data, each invalid UTF-8 byte replaced by
// U+FFFD, unless a required field is empty or the amount zero, which the
// decoder refuses.
func FuzzPacketDataMarshal(f *testing.F) {
	f.Add("transfer/channel-0/uatom", "cosmos1sender", "guest1receiver", "", uint64(1000))
	f.Add("X", "a", "b", `{"forward":{"receiver":"c","port":"transfer","channel":"channel-7"}}`, uint64(1))
	f.Add("\xff\xfe", "<script>&", "\u2028", "\x00\"", uint64(1<<63))
	f.Add("", "a", "b", "m", uint64(0))
	f.Fuzz(func(t *testing.T, denom, sender, receiver, memo string, amount uint64) {
		d := PacketData{Denom: denom, Amount: amount, Sender: sender, Receiver: receiver, Memo: memo}
		got, err := UnmarshalPacketData(d.Marshal())
		if amount == 0 || denom == "" || sender == "" || receiver == "" {
			if err == nil {
				t.Fatalf("accepted %+v", d)
			}
			return
		}
		if err != nil {
			t.Fatalf("%+v: %v", d, err)
		}
		// Converting to runes turns each invalid byte into U+FFFD, as the
		// JSON encoder does.
		valid := func(s string) string { return string([]rune(s)) }
		want := PacketData{Denom: valid(denom), Amount: amount, Sender: valid(sender), Receiver: valid(receiver), Memo: valid(memo)}
		if *got != want {
			t.Fatalf("%+v round-trips to %+v, want %+v", d, *got, want)
		}
	})
}

func TestChanOpenValidation(t *testing.T) {
	app := New("transfer")
	if err := app.OnChanOpen("transfer", "channel-0", "ics20-1"); err != nil {
		t.Fatal(err)
	}
	if err := app.OnChanOpen("transfer", "channel-0", ""); err != nil {
		t.Fatal(err)
	}
	if err := app.OnChanOpen("other", "channel-0", "ics20-1"); err == nil {
		t.Fatal("wrong port accepted")
	}
	if err := app.OnChanOpen("transfer", "channel-0", "ics99"); err == nil {
		t.Fatal("wrong version accepted")
	}
}

// jsonSuccessAck is the acknowledgement rule before IsSuccessAck compared
// bytes first: a JSON object with a "result" member. It is the oracle the
// fast path must agree with.
func jsonSuccessAck(ack []byte) bool {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(ack, &m); err != nil {
		return false
	}
	_, ok := m["result"]
	return ok
}

// FuzzSuccessAck: IsSuccessAck answers every input as the JSON rule does.
func FuzzSuccessAck(f *testing.F) {
	for _, seed := range []string{
		string(AckSuccess),
		string(AckError("transfer: insufficient escrow")),
		` {"result":"AQ=="} `,
		"{\n\t\"result\" : \"AQ==\"\n}",
		`{"\u0072esult":"AQ=="}`,
		`{"result":"AQ==","result":"AQ=="}`,
		`{"error":"x","result":"AQ=="}`,
		`{"Result":"AQ=="}`,
		`["result"]`,
		`"result"`,
		`null`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, ack []byte) {
		if got, want := IsSuccessAck(ack), jsonSuccessAck(ack); got != want {
			t.Fatalf("IsSuccessAck(%q) = %v, the JSON rule says %v", ack, got, want)
		}
	})
}

// TestAckAndRecvAllocations pins what an ack check, a send and a recv cost
// the app: the success ack is recognised without decoding, and a voucher
// prefix is checked without spelling it. The recv counts are the
// packet data's JSON decode plus, for a minted voucher, its denom.
func TestAckAndRecvAllocations(t *testing.T) {
	app := New("transfer")
	app.Mint("alice", "SOL", 1<<21)
	if err := app.PrepareSend("channel-5", &PacketData{Denom: "SOL", Amount: 1 << 20, Sender: "alice", Receiver: "bob"}); err != nil {
		t.Fatal(err)
	}
	foreign := pkt("channel-0", "channel-5", &PacketData{Denom: "ATOM", Amount: 1, Sender: "carol", Receiver: "bob"})
	home := pkt("channel-0", "channel-5", &PacketData{Denom: "transfer/channel-0/SOL", Amount: 1, Sender: "carol", Receiver: "bob"})
	errAck := AckError("transfer: insufficient escrow")
	send := &PacketData{Denom: "SOL", Amount: 1, Sender: "alice", Receiver: "bob"}
	for _, c := range []struct {
		name string
		want float64
		f    func() bool
	}{
		{"IsSuccessAck(AckSuccess)", 0, func() bool { return IsSuccessAck(AckSuccess) }},
		{"IsSuccessAck(error ack)", errorAckAllocs, func() bool { return !IsSuccessAck(errAck) }},
		{"PrepareSend(native denom)", 0, func() bool { return app.PrepareSend("channel-5", send) == nil }},
		{"OnRecvPacket(foreign denom)", recvMintAllocs, func() bool {
			ack, err := app.OnRecvPacket(foreign)
			return err == nil && IsSuccessAck(ack)
		}},
		{"OnRecvPacket(returning denom)", recvHomeAllocs, func() bool {
			ack, err := app.OnRecvPacket(home)
			return err == nil && IsSuccessAck(ack)
		}},
	} {
		ok := true
		got := testing.AllocsPerRun(100, func() { ok = ok && c.f() })
		if !ok {
			t.Fatalf("%s: wrong answer", c.name)
		}
		if got != c.want {
			t.Errorf("%s: %.0f allocations, want %.0f", c.name, got, c.want)
		}
	}
}

// The pinned counts of TestAckAndRecvAllocations.
const (
	errorAckAllocs = 9
	recvMintAllocs = 9
	recvHomeAllocs = 8
)
