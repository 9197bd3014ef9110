package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportReaders is the rule that keeps an exported name declared under
// internal/: some non-test file in the module — another package, the repo
// benchmark, a command or an example — must name it, or it needs a row
// here naming its reader or the reason it stays. Rows are keyed
// "pkg.Name" or "pkg.Type.Method", pkg being the path below internal/.
// Add a row only together with its reason; a name with neither is deleted
// (or moved into the tests that use it).
var exportReaders = map[string]string{
	// The paper's own features, reached only by tests.
	"guest.TxBuilder.UnstakeTx":            "§III-B unstake (guest TestStakeUnstakeWithdraw)",
	"guest.TxBuilder.WithdrawTx":           "§III-B withdraw after unbonding (guest TestStakeUnstakeWithdraw)",
	"guest.TxBuilder.EmergencyReleaseTx":   "§VI-A emergency release (guest TestEmergencyRelease)",
	"ibc.Handler.ChanCloseInit":            "ICS-04 channel close (ibc TestChannelCloseHandshake, core TestRefusedCPSendLeavesNoEscrow)",
	"ibc.Handler.ChanCloseConfirm":         "ICS-04 channel close (ibc TestChannelCloseHandshake)",
	"lightclient/tendermint.WithRateLimit": "§VI-C update rate limit (tendermint TestRateLimit)",
	// Standard-library interfaces: container/heap calls these.
	"sim.eventQueue.Less": "heap.Interface (sort.Interface)",
	"sim.eventQueue.Swap": "heap.Interface (sort.Interface)",
	// Checked decoders that fuzz targets drive.
	"trie.Proof.UnmarshalBinary": "FuzzProofDecode holds its checks to their allocation bound; TestProofDecodeRejectsMalformed",
	// Test seams that tests in other packages reach.
	"cryptoutil.WithWorkers":     "the sequential reference: cryptoutil TestBatchVerifyEach and TestBatchVerifyAllTable, guestblock TestSignedBlockQuorum",
	"trie.WithCapacity":          "a small arena: ibc TestStoreCapacity and TestStoreVersionAfterTrieCapacityError",
	"guest.State.StagingBuffers": "open staging after a job settles: relayer TestEngine, TestLateLaneCommitsOnItsOwnPacer, TestGuestRefusedAckJobRequeued",
	"host.Chain.HeldBlocks":      "blocks held for unread readers: core TestHostHoldsOnlyUnreadBlocks, host TestReadersConcurrent",
	"host.Block.EventsOfKind":    "a block's events by kind: relayer TestChunkedClientUpdateThroughTransactions, guest TestSignChecksAndQuorum",
}

// TestEveryExportHasAReader parses every non-test Go file in the module and
// fails on any exported top-level func, method, type, var or const declared
// under internal/ whose name no non-test file uses as an identifier other
// than at a declaration, unless exportReaders has a row for it. A row for
// a name that is read, or no longer declared, fails too. The match is by
// name, not by type: a read of any Close keeps every Close method.
func TestEveryExportHasAReader(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct {
		key string // pkg.Name or pkg.Type.Method
		pos token.Position
	}
	var decls []decl
	declared := make(map[*ast.Ident]bool)
	reads := make(map[string]bool)
	var files []*ast.File
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		pkg, internal := strings.CutPrefix(filepath.ToSlash(filepath.Dir(path)), "internal/")
		add := func(id *ast.Ident, key string) {
			declared[id] = true
			if internal && id.IsExported() {
				decls = append(decls, decl{pkg + "." + key, fset.Position(id.Pos())})
			}
		}
		for _, dd := range f.Decls {
			switch dd := dd.(type) {
			case *ast.FuncDecl:
				key := dd.Name.Name
				if dd.Recv != nil {
					key = recvType(dd.Recv.List[0].Type) + "." + key
				}
				add(dd.Name, key)
			case *ast.GenDecl:
				for _, s := range dd.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, s.Name.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, id.Name)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				reads[id.Name] = true
			}
			return true
		})
	}
	var unread, stale []string
	seen := make(map[string]bool)
	for _, d := range decls {
		seen[d.key] = true
		name := d.key[strings.LastIndexByte(d.key, '.')+1:]
		_, kept := exportReaders[d.key]
		switch {
		case !reads[name] && !kept:
			unread = append(unread, d.key+" ("+d.pos.String()+")")
		case reads[name] && kept:
			stale = append(stale, d.key+" is read outside its declaration")
		}
	}
	for key := range exportReaders {
		if !seen[key] {
			stale = append(stale, key+" is not declared")
		}
	}
	sort.Strings(unread)
	sort.Strings(stale)
	if len(unread) > 0 {
		t.Errorf("%d exported names have no non-test reader (delete them, move them into their tests, or add a row with the reason):\n  %s",
			len(unread), strings.Join(unread, "\n  "))
	}
	if len(stale) > 0 {
		t.Errorf("%d exportReaders rows keep nothing (delete the row):\n  %s", len(stale), strings.Join(stale, "\n  "))
	}
}

// recvType is the name of a method receiver's type: T for T, *T, T[P] and *T[P].
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
