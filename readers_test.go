package repro

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportReaders is the rule that keeps a name declared under internal/:
// some non-test file in the module — its own package, another one, the
// repo benchmark, a command or an example — must read it, or it needs a
// row here naming its reader or the reason it stays. Rows are keyed
// "pkg.Name", "pkg.Type.Method" or "pkg.Type.field", pkg being the path
// below internal/. Add a row only together with its reason; a name with
// neither is deleted (or moved into the tests that use it).
var exportReaders = map[string]string{
	// The paper's own features, reached only by tests.
	"guest.TxBuilder.UnstakeTx":            "§III-B unstake (guest TestStakeUnstakeWithdraw)",
	"guest.TxBuilder.WithdrawTx":           "§III-B withdraw after unbonding (guest TestStakeUnstakeWithdraw)",
	"guest.TxBuilder.EmergencyReleaseTx":   "§VI-A emergency release (guest TestEmergencyRelease)",
	"ibc.Handler.ChanCloseInit":            "ICS-04 channel close (ibc TestChannelCloseHandshake, core TestRefusedCPSendLeavesNoEscrow)",
	"ibc.Handler.ChanCloseConfirm":         "ICS-04 channel close (ibc TestChannelCloseHandshake)",
	"lightclient/tendermint.WithRateLimit": "§VI-C update rate limit (tendermint TestRateLimit)",
	"trie.Trie.hashes":                     "§III-A commits rehash only the dirty path (trie TestNodeFootprintAndAllocs counts the hashes)",
	// Checked decoders that fuzz targets drive.
	"trie.Proof.UnmarshalBinary": "FuzzProofDecode holds its checks to their allocation bound; TestProofDecodeRejectsMalformed",
	// Test seams that tests in other packages reach.
	"cryptoutil.WithWorkers":        "the sequential reference: cryptoutil TestBatchVerifyEach and TestBatchVerifyAllTable, guestblock TestSignedBlockQuorum",
	"trie.WithCapacity":             "a small arena: ibc TestStoreCapacity and TestStoreVersionAfterTrieCapacityError",
	"guest.State.StagingBuffers":    "open staging after a job settles: relayer TestEngine, TestLateLaneCommitsOnItsOwnPacer, TestGuestRefusedAckJobRequeued",
	"sim.Scheduler.Pending":         "the lossless path schedules nothing: netsim TestLosslessDeliversInline; sim TestSchedulerConcurrentEnqueue",
	"host.Chain.HeldBlocks":         "blocks held for unread readers: core TestHostHoldsOnlyUnreadBlocks, host TestReadersConcurrent",
	"host.Block.EventsOfKind":       "a block's events by kind: relayer TestChunkedClientUpdateThroughTransactions, guest TestSignChecksAndQuorum",
	"counterparty.Chain.Store":      "proofs of packets not yet committed at a height: relayer TestRecvJobResubmittedAfterRefusal, TestExpiredRecvInFlushedJobLeftToTimeout",
	"ibc.EventTimeoutPacket.Packet": "the order the guest timed packets out: relayer TestCheckTimeoutsOrdersSameScanExpiries",
	"trie.View.Root":                "a retained version's frozen root: the ibc tests' ReadOnlyStore.Root (TestStoreSnapshotIndependence, FuzzStoreVersions, persistence tests)",
}

// TestEveryExportHasAReader fails on any top-level name, method or struct
// field declared in a non-test file under internal/ that no non-test file
// of the module reads (see scanMembers), unless exportReaders has a row for
// it. A row for a member that is read, or no longer declared, fails too.
func TestEveryExportHasAReader(t *testing.T) {
	members, err := scanMembers(".", "repro")
	if err != nil {
		t.Fatal(err)
	}
	var unread, stale []string
	seen := make(map[string]bool)
	for _, m := range members {
		seen[m.key] = true
		_, kept := exportReaders[m.key]
		switch {
		case !m.read && !kept:
			unread = append(unread, m.key+" ("+m.pos.String()+")")
		case m.read && kept:
			stale = append(stale, m.key+" is read outside its declaration")
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
		t.Errorf("%d names under internal/ have no non-test reader (delete them, move them into their tests, or add a row with the reason):\n  %s",
			len(unread), strings.Join(unread, "\n  "))
	}
	if len(stale) > 0 {
		t.Errorf("%d exportReaders rows keep nothing (delete the row):\n  %s", len(stale), strings.Join(stale, "\n  "))
	}
}

// TestReaderGateResolvesObjects runs the gate's checker over
// testdata/readers, a module that declares one member of each kind the
// checker must tell apart. Only the method that shares a read method's
// name and the field that is written but never read are unread; a checker
// that matched by name would keep the first.
func TestReaderGateResolvesObjects(t *testing.T) {
	members, err := scanMembers("testdata/readers", "fixture")
	if err != nil {
		t.Fatal(err)
	}
	var unread []string
	declared := make(map[string]bool)
	for _, m := range members {
		declared[m.key] = true
		if !m.read {
			unread = append(unread, m.key)
		}
	}
	sort.Strings(unread)
	if want := "fx.Idle.Name fx.Idle.written"; strings.Join(unread, " ") != want {
		t.Errorf("unread = %q, want %q", unread, want)
	}
	// Each kind the checker must keep is declared, so a fixture edit that
	// drops one fails here rather than passing vacuously.
	for _, key := range []string{"fx.Named.Name", "fx.Idle.count", "fx.point.x", "fx.pool.get", "fx.pool.items", "fx.queue.Less", "fx.Wire.Field"} {
		if !declared[key] {
			t.Errorf("fixture declares no %s", key)
		}
	}
}

// member is a name the gate checks: its key (see exportReaders), where it
// is declared, and whether any non-test file reads it.
type member struct {
	key  string
	pos  token.Position
	read bool
}

// scanMembers type-checks every package of the module rooted at dir (import
// path module) from its non-test files, and returns each top-level name,
// method and struct field declared under internal/, with whether it is
// read. Standard-library imports are type-checked from
// source; the module's own come from the walk. A member is read when an
// identifier resolves to its object (generic instances through Origin),
// other than as the target of an assignment or increment or as a key of a
// composite literal, which only write it. Four more uses read a member:
// a field of a struct used as a map key or compared with == or !=; a field
// of a struct handed to encoding/json's encoders or to fmt, which read
// every field; a promoted selection, which reads the embedded fields it
// passes through; and a method of a type that implements an interface the
// program uses, which that interface may call.
func scanMembers(dir, module string) ([]member, error) {
	fset := token.NewFileSet()
	files := make(map[string][]*ast.File) // by import path
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != dir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, filepath.Dir(p))
		if err != nil {
			return err
		}
		ip := path.Join(module, filepath.ToSlash(rel))
		files[ip] = append(files[ip], f)
		return nil
	})
	if err != nil {
		return nil, err
	}

	c := &readCheck{
		info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Instances:  make(map[*ast.Ident]types.Instance),
		},
		read:       make(map[types.Object]bool),
		interfaces: make(map[*types.Interface]bool),
		visited:    make(map[types.Type]bool),
		seen:       [3]map[types.Type]bool{{}, {}, {}},
	}
	std := importer.ForCompiler(fset, "source", nil)
	pkgs := make(map[string]*types.Package)
	var check func(ip string) (*types.Package, error)
	imp := importerFunc(func(ip string) (*types.Package, error) {
		if _, ok := files[ip]; ok {
			return check(ip)
		}
		return std.Import(ip)
	})
	check = func(ip string) (*types.Package, error) {
		if p := pkgs[ip]; p != nil {
			return p, nil
		}
		conf := types.Config{Importer: imp}
		p, err := conf.Check(ip, fset, files[ip], c.info)
		if err != nil {
			return nil, err
		}
		pkgs[ip] = p
		return p, nil
	}
	var paths []string
	for ip := range files {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		if _, err := check(ip); err != nil {
			return nil, err
		}
	}

	// Declarations: the gate's members with their keys.
	var members []member
	objects := make(map[types.Object]int)
	for _, ip := range paths {
		pkg, internal := strings.CutPrefix(ip, module+"/internal/")
		if !internal {
			continue
		}
		for _, f := range files[ip] {
			keys := make(map[*ast.Ident]string)
			memberKeys(f, keys)
			for id, key := range keys {
				obj := c.info.Defs[id]
				if obj == nil || !isMember(obj) {
					continue
				}
				objects[obj] = len(members)
				members = append(members, member{key: pkg + "." + key, pos: fset.Position(id.Pos())})
			}
		}
	}

	// Reads.
	writes := make(map[*ast.Ident]bool)
	for _, ip := range paths {
		for _, f := range files[ip] {
			c.scan(f, writes)
		}
	}
	for id, obj := range c.info.Uses {
		if !writes[id] {
			c.read[origin(obj)] = true
		}
	}
	for _, tv := range c.info.Types {
		c.collectInterfaces(tv.Type)
	}
	// fmt calls String on what it prints.
	fmtPkg, err := std.Import("fmt")
	if err != nil {
		return nil, err
	}
	c.collectInterfaces(fmtPkg.Scope().Lookup("Stringer").Type())
	c.readImplemented()
	for obj, i := range objects {
		members[i].read = c.read[obj]
	}
	return members, nil
}

// readCheck holds one module's type information and the objects its
// non-test files read.
type readCheck struct {
	info       *types.Info
	read       map[types.Object]bool
	interfaces map[*types.Interface]bool // used interfaces with methods
	visited    map[types.Type]bool
	seen       [3]map[types.Type]bool // by how, for readFields
}

// scan marks the writes of f (assignment targets, increments and
// composite-literal keys) and the whole-value reads of struct fields: map
// keys, == and != operands, json encoder and fmt arguments, and the
// embedded fields a promoted selection passes through.
func (c *readCheck) scan(f *ast.File, writes map[*ast.Ident]bool) {
	target := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			writes[sel.Sel] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, e := range n.Lhs {
				target(e)
			}
		case *ast.IncDecStmt:
			target(n.X)
		case *ast.CompositeLit:
			if _, ok := c.info.Types[n].Type.Underlying().(*types.Struct); ok {
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							writes[id] = true
						}
					}
				}
			}
		case *ast.MapType:
			c.readFields(c.info.Types[n.Key].Type, compared)
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				c.readFields(c.info.Types[n.X].Type, compared)
				c.readFields(c.info.Types[n.Y].Type, compared)
			}
		case *ast.CallExpr:
			if how, ok := wholeReader(calledFunc(c.info, n.Fun)); ok {
				for _, a := range n.Args {
					t := c.info.Types[a].Type
					if p, ok := t.(*types.Pointer); ok && how == printed && !hasMethod(t, "String") && !hasMethod(t, "Error") {
						t = p.Elem() // fmt prints the struct a top-level pointer points to
					}
					c.readFields(t, how)
				}
			}
		case *ast.SelectorExpr:
			if s := c.info.Selections[n]; s != nil && len(s.Index()) > 1 {
				t := s.Recv()
				for _, i := range s.Index()[:len(s.Index())-1] {
					st, ok := deref(t).Underlying().(*types.Struct)
					if !ok {
						break
					}
					c.read[origin(st.Field(i))] = true
					t = st.Field(i).Type()
				}
			}
		}
		return true
	})
}

// How a whole value is read: compared (as a map key or by == and !=),
// printed by fmt or encoded by encoding/json.
const (
	compared = iota
	printed
	encoded
)

// wholeReader reports how a call to fn reads its arguments whole: fmt
// prints them, encoding/json's encoders encode them.
func wholeReader(fn *types.Func) (int, bool) {
	if fn == nil || fn.Pkg() == nil {
		return 0, false
	}
	switch p := fn.Pkg().Path(); {
	case p == "fmt":
		return printed, true
	case p == "encoding/json" && (strings.HasPrefix(fn.Name(), "Marshal") || fn.Name() == "Encode"):
		return encoded, true
	}
	return 0, false
}

// readFields marks the fields of t that reading a whole value of t in the
// given way reads: a comparison reads every field of a struct or array
// element; fmt prints through slices and maps but not behind a pointer or
// inside a value with a String or Error method; json encodes exported
// fields through pointers, slices and maps.
func (c *readCheck) readFields(t types.Type, how int) {
	if t == nil || c.seen[how][t] {
		return
	}
	c.seen[how][t] = true
	if how == printed && (hasMethod(t, "String") || hasMethod(t, "Error")) {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if f := u.Field(i); how != encoded || f.Exported() {
				c.read[origin(f)] = true
				c.readFields(f.Type(), how)
			}
		}
	case *types.Array:
		c.readFields(u.Elem(), how)
	case *types.Pointer:
		if how == encoded {
			c.readFields(u.Elem(), how)
		}
	case *types.Slice:
		if how != compared {
			c.readFields(u.Elem(), how)
		}
	case *types.Map:
		if how != compared {
			c.readFields(u.Key(), how)
			c.readFields(u.Elem(), how)
		}
	}
}

// collectInterfaces records every interface with methods that t is or
// that a signature, pointer, slice, array, map or channel in t mentions.
func (c *readCheck) collectInterfaces(t types.Type) {
	if t == nil || c.visited[t] {
		return
	}
	c.visited[t] = true
	switch u := t.Underlying().(type) {
	case *types.Interface:
		if u.NumMethods() > 0 {
			c.interfaces[u] = true
		}
	case *types.Signature:
		for _, tup := range []*types.Tuple{u.Params(), u.Results()} {
			for i := 0; i < tup.Len(); i++ {
				c.collectInterfaces(tup.At(i).Type())
			}
		}
	case *types.Pointer:
		c.collectInterfaces(u.Elem())
	case *types.Slice:
		c.collectInterfaces(u.Elem())
	case *types.Array:
		c.collectInterfaces(u.Elem())
	case *types.Chan:
		c.collectInterfaces(u.Elem())
	case *types.Map:
		c.collectInterfaces(u.Key())
		c.collectInterfaces(u.Elem())
	}
}

// readImplemented marks read each method, promoted ones included, that a
// used interface may call: the methods of the interface on every module
// type (or instance of a generic one) that implements it, another
// interface included.
func (c *readCheck) readImplemented() {
	var named []types.Type
	for _, obj := range c.info.Defs {
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
				named = append(named, n)
			}
		}
	}
	for _, inst := range c.info.Instances {
		if n, ok := inst.Type.(*types.Named); ok {
			named = append(named, n)
		}
	}
	for iface := range c.interfaces {
		for _, t := range named {
			if t.Underlying() == iface {
				continue
			}
			if !types.Implements(t, iface) {
				if t = types.NewPointer(t); !types.Implements(t, iface) {
					continue
				}
			}
			for i := 0; i < iface.NumMethods(); i++ {
				m := iface.Method(i)
				if obj, _, _ := types.LookupFieldOrMethod(t, false, m.Pkg(), m.Name()); obj != nil {
					c.read[origin(obj)] = true
				}
			}
		}
	}
}

// isMember reports whether the gate checks obj: a struct field, a method
// (of a type or in an interface), or a top-level name.
func isMember(obj types.Object) bool {
	switch o := obj.(type) {
	case *types.Var:
		if o.IsField() {
			return true
		}
	case *types.Func:
		if o.Type().(*types.Signature).Recv() != nil {
			return true
		}
	}
	return obj.Pkg().Scope().Lookup(obj.Name()) == obj
}

// hasMethod reports whether t's method set, or that of *t, has a method
// called name.
func hasMethod(t types.Type, name string) bool {
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, name)
	_, ok := obj.(*types.Func)
	return ok
}

// memberKeys names each declaration in f the gate may check: top-level
// funcs, types, vars and consts, methods "Type.Method", struct fields
// "Type.field" (nested anonymous structs "Type.field.sub"; in a function
// body, under the function's name), and interface methods "Iface.Method".
func memberKeys(f *ast.File, keys map[*ast.Ident]string) {
	var walk func(n ast.Node, scope string)
	walk = func(n ast.Node, scope string) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				name := n.Name.Name
				if n.Recv != nil {
					name = recvType(n.Recv.List[0].Type) + "." + name
				}
				keys[n.Name] = name
				if n.Body != nil {
					walk(n.Body, name)
				}
				return false
			case *ast.TypeSpec:
				keys[n.Name] = n.Name.Name
				walk(n.Type, n.Name.Name)
				return false
			case *ast.ValueSpec:
				for _, id := range n.Names {
					keys[id] = id.Name
				}
				if n.Type != nil {
					walk(n.Type, n.Names[0].Name)
				}
				for _, v := range n.Values {
					walk(v, scope)
				}
				return false
			case *ast.StructType:
				for _, fl := range n.Fields.List {
					for _, id := range fl.Names {
						keys[id] = scope + "." + id.Name
						walk(fl.Type, scope+"."+id.Name)
					}
					if len(fl.Names) == 0 {
						walk(fl.Type, scope)
					}
				}
				return false
			case *ast.InterfaceType:
				for _, fl := range n.Methods.List {
					for _, id := range fl.Names {
						keys[id] = scope + "." + id.Name
					}
				}
				return false
			}
			return true
		})
	}
	walk(f, "")
}

// recvType is the name of a method receiver's type: T for T, *T, T[P] and *T[P].
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// calledFunc is the function or method a call's callee names, if any.
func calledFunc(info *types.Info, fun ast.Expr) *types.Func {
	switch f := ast.Unparen(fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// origin is the declared object behind a use: the generic member for a
// member of an instantiated type or function.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
