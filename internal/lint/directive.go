package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
	"sync/atomic"
)

// The directive index is the one place that reads //fcae:<name> <args>
// comments. It is built once per Module and owns the rules that hold for
// every directive: the name must be known, what the kind requires after
// the name must be there, a kind that belongs in a function's doc comment
// must be in one, and a suppression or grant must have been consulted by
// its analyzer during the run — one that nobody asked about suppresses
// nothing and would otherwise rot unseen. Analyzers keep only the
// interpretation of their own arguments (`A -> B`, `pkg.Type.field`).

const directivePrefix = "//fcae:"

// directiveKind says what the index enforces for one directive name.
type directiveKind struct {
	owner  string // analyzer under whose name the index reports this kind
	onFunc bool   // belongs in a function's doc comment
	needs  string // finding when nothing usable follows the name; "" when nothing has to
	unused string // finding when no analyzer consulted it; "" for kinds that only declare
}

var directiveKinds = map[string]directiveKind{
	"cycle-accounting": {owner: "cycleflow", onFunc: true},
	"alloc-ok": {owner: "hotalloc",
		needs:  "the reason is mandatory (//fcae:alloc-ok <reason>)",
		unused: "suppresses nothing: hotalloc flags no allocation on this line or the next; remove it"},
	"view-ok": {owner: "bufalias",
		needs:  "the reason is mandatory (//fcae:view-ok <reason>)",
		unused: "is not attached to a view store (x.f = x.it.Key()); remove it"},
	"chan-owner": {owner: "chanflow", onFunc: true,
		needs:  `want "//fcae:chan-owner pkg.Type.field"`,
		unused: "grants nothing: its function never closes that channel, or is the one that makes it; remove it"},
	"lock-order": {owner: "lockorder",
		needs: `want "//fcae:lock-order pkg.Type.mu -> pkg.Type.mu"`},
}

// unknownDirectiveOwner reports misspelt names: hotalloc reads two of the
// five kinds, and a misspelling of either silently un-marks or un-suppresses
// one of its sites.
const unknownDirectiveOwner = "hotalloc"

// Directive is one well-formed //fcae: comment.
type Directive struct {
	Name string // "alloc-ok"
	Args string // what follows the name, trimmed
	Pos  token.Pos
	Func *FuncInfo // the function whose doc comment holds it, or nil

	used atomic.Bool
}

// Use records that an analyzer consulted d: honoured it, or rejected it
// with a finding of its own.
func (d *Directive) Use() { d.used.Store(true) }

// String is the directive as written, without its arguments.
func (d *Directive) String() string { return directivePrefix + d.Name }

// Malformed is the finding text for a d whose arguments its analyzer could
// not interpret; the index uses the same text when they are missing.
func (d *Directive) Malformed() string {
	return fmt.Sprintf("malformed %s directive: %s", d, directiveKinds[d.Name].needs)
}

type fileLine struct {
	file string
	line int
}

// DirectiveIndex holds every directive of the module.
type DirectiveIndex struct {
	fset     *token.FileSet
	byName   map[string][]*Directive
	byLine   map[fileLine]*Directive
	rejected []Diagnostic // found while building; Analyzer is the owner
}

func buildDirectiveIndex(m *Module) *DirectiveIndex {
	ix := &DirectiveIndex{
		fset:   m.Fset,
		byName: make(map[string][]*Directive),
		byLine: make(map[fileLine]*Directive),
	}
	docOf := make(map[*ast.Comment]*FuncInfo)
	for _, fi := range m.Funcs() {
		if fi.Decl.Doc != nil {
			for _, c := range fi.Decl.Doc.List {
				docOf[c] = fi
			}
		}
	}
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if strings.HasPrefix(c.Text, directivePrefix) {
						ix.add(c, docOf[c])
					}
				}
			}
		}
	}
	return ix
}

func (ix *DirectiveIndex) add(c *ast.Comment, fi *FuncInfo) {
	name, args, _ := strings.Cut(strings.TrimPrefix(c.Text, directivePrefix), " ")
	d := &Directive{Name: name, Args: strings.TrimSpace(args), Pos: c.Pos(), Func: fi}
	kind, known := directiveKinds[name]
	reject := func(owner, msg string) {
		ix.rejected = append(ix.rejected, Diagnostic{
			Pos: ix.fset.Position(d.Pos), Analyzer: owner, Message: msg, Category: "directive"})
	}
	switch {
	case !known:
		names := make([]string, 0, len(directiveKinds))
		for k := range directiveKinds {
			names = append(names, k)
		}
		sort.Strings(names)
		reject(unknownDirectiveOwner, fmt.Sprintf("unknown directive %s (known: %s)", d, strings.Join(names, ", ")))
	case kind.needs != "" && d.Args == "":
		reject(kind.owner, d.Malformed())
	case kind.onFunc && fi == nil:
		reject(kind.owner, fmt.Sprintf("%s is not attached to anything: it belongs in a function's doc comment", d))
	default:
		ix.byName[name] = append(ix.byName[name], d)
		p := ix.fset.Position(d.Pos)
		ix.byLine[fileLine{p.Filename, p.Line}] = d
	}
}

// All returns the well-formed directives called name, in file order
// within each package.
func (ix *DirectiveIndex) All(name string) []*Directive { return ix.byName[name] }

// OnFunc returns the directives called name in fd's doc comment.
func (ix *DirectiveIndex) OnFunc(name string, fd *ast.FuncDecl) []*Directive {
	var out []*Directive
	for _, d := range ix.byName[name] {
		if d.Func != nil && d.Func.Decl == fd {
			out = append(out, d)
		}
	}
	return out
}

// AtLine returns the directive called name on pos's line or, failing
// that, on the line above it — the two places a per-statement directive
// can sit — or nil.
func (ix *DirectiveIndex) AtLine(name string, pos token.Pos) *Directive {
	p := ix.fset.Position(pos)
	for _, line := range []int{p.Line, p.Line - 1} {
		if d := ix.byLine[fileLine{p.Filename, line}]; d != nil && d.Name == name {
			return d
		}
	}
	return nil
}

// findings returns what the index itself reports once the analyzers in ran
// have finished: the directives it rejected while building, and every
// suppression or grant nobody consulted. Each goes out under its kind's
// owner, and only when that analyzer ran — a run of one analyzer is not
// the place to learn that another's directives went unread.
func (ix *DirectiveIndex) findings(ran map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, d := range ix.rejected {
		if ran[d.Analyzer] {
			out = append(out, d)
		}
	}
	for name, ds := range ix.byName {
		kind := directiveKinds[name]
		if kind.unused == "" || !ran[kind.owner] {
			continue
		}
		for _, d := range ds {
			if !d.used.Load() {
				out = append(out, Diagnostic{Pos: ix.fset.Position(d.Pos), Analyzer: kind.owner,
					Message: d.String() + " " + kind.unused, Category: "directive"})
			}
		}
	}
	return out
}
