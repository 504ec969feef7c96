package astra

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// Reasons a production function that no program links may stay. "Its
// own test calls it" is not one of them.
const (
	keepFacade   = "public API of the astra facade"
	keepOracle   = "reference implementation: tests compare kept code against it"
	keepHelper   = "a helper tests of kept code use to build inputs or read results"
	keepFake     = "iofault is the fault-injecting filesystem the crash, retry and stall tests run on"
	keepAblation = "ablation code behind an EXPERIMENTS.md row"
	keepStringer = "fmt.Stringer: it formats the value wherever fmt prints it"
	keepRoadmap  = "named by ROADMAP.md's open items as the tool for the next change"
)

// linkKeep lists the production functions no program links that stay
// anyway, each with the reason it stays. A function is named as the
// linker names it: import path, then Func, Type.Method or (*Type).Method.
var linkKeep = map[string]string{
	"repro.(*Study).WriteReport": keepFacade,

	"repro/internal/core.AnalyzePerNode":         keepOracle + " (RecordIndex's analyses and the robustness harness)",
	"repro/internal/core.AnalyzeStructures":      keepOracle + " (TestRecordIndexMatchesDirectAnalyses)",
	"repro/internal/core.AnalyzeUtilization":     keepOracle + " (TestRecordIndexMatchesDirectAnalyses)",
	"repro/internal/core.TrueModeObservable":     keepOracle + " (the observable mode ValidateClustering's ModeRecall compares with)",
	"repro/internal/core.ValidateClustering":     keepOracle + " (core.Cluster against the ground-truth population)",
	"repro/internal/core.ValidationMetrics.Ok":   keepOracle + " (ValidateClustering's verdict)",
	"repro/internal/mce.VerifyCEClassification":  keepOracle + " (the generated population's CEs against SEC-DED)",
	"repro/internal/mce.VerifyDUEClassification": keepOracle + " (the generated population's DUEs against SEC-DED)",
	"repro/internal/envmodel.PlausibleRange":     keepOracle + " (Sample's injected garbage values fall outside it)",
	"repro/internal/stats.WeibullFit.Survival":   keepOracle + " (KaplanMeier against a fitted Weibull)",
	"repro/internal/predict.(*Tracker).Features": keepOracle + " (stream features against a batch Tracker)",
	"repro/internal/predict.(*Tracker).Last":     keepOracle + " (the batch Tracker's evaluation time)",
	"repro/internal/stream.(*Engine).Records":    keepOracle + " (the engine's replayable state, against the ingested records)",
	"repro/internal/stream.RecordLog.Records":    keepOracle + " (a checkpoint handle's records, for Engine.Records)",
	"repro/internal/stream.(*row).record":        keepOracle + " (unpacks a row for RecordLog.Records)",

	"repro/internal/atomicio.(*Manifest).FileNames": keepHelper + " (the export crash tests list a manifest's files)",
	"repro/internal/corrupt.Report.Mutations":       keepHelper + " (a corrupted log must carry mutations)",
	"repro/internal/simrand.(*Stream).Exp":          keepHelper + "; scrub's ablation draws with it too",
	"repro/internal/simrand.(*Stream).LogNormal":    keepHelper + " (stats' streaming estimators)",
	"repro/internal/simrand.(*Stream).Shuffle":      keepHelper + " (syslog's codec tests)",
	"repro/internal/simrand.(*Stream).Weibull":      keepHelper + " (stats' survival fits)",
	"repro/internal/syslog.FormatCE":                keepHelper,
	"repro/internal/syslog.FormatDUE":               keepHelper,
	"repro/internal/syslog.FormatHET":               keepHelper,
	"repro/internal/syslog.NewScanner":              keepHelper + " (the scanner's zero-tolerance configuration)",
	"repro/internal/syslog.ParseLine":               keepHelper + " (the decoder's string form, ExampleParseLine)",

	"repro/internal/iofault.New":              keepFake,
	"repro/internal/iofault.FlipBit":          keepFake,
	"repro/internal/iofault.Truncate":         keepFake,
	"repro/internal/iofault.(*FS).CreateTemp": keepFake,
	"repro/internal/iofault.(*FS).Killed":     keepFake,
	"repro/internal/iofault.(*FS).MkdirAll":   keepFake,
	"repro/internal/iofault.(*FS).Open":       keepFake,
	"repro/internal/iofault.(*FS).Ops":        keepFake,
	"repro/internal/iofault.(*FS).ReadDir":    keepFake,
	"repro/internal/iofault.(*FS).ReadFile":   keepFake,
	"repro/internal/iofault.(*FS).Remove":     keepFake,
	"repro/internal/iofault.(*FS).Rename":     keepFake,
	"repro/internal/iofault.(*FS).SyncDir":    keepFake,
	"repro/internal/iofault.(*FS).op":         keepFake,
	"repro/internal/iofault.(*FS).prefixLen":  keepFake,
	"repro/internal/iofault.(*FS).roll":       keepFake,
	"repro/internal/iofault.(*FS).stall":      keepFake,
	"repro/internal/iofault.(*file).Close":    keepFake,
	"repro/internal/iofault.(*file).Sync":     keepFake,
	"repro/internal/iofault.(*file).Write":    keepFake,
	"repro/internal/iofault.(*reader).Close":  keepFake,
	"repro/internal/iofault.(*reader).Read":   keepFake,

	"repro/internal/ecc/chipkill.ChipOfDataBit":              keepAblation + " (SEC-DED vs Chipkill)",
	"repro/internal/ecc/chipkill.Decode":                     keepAblation + " (SEC-DED vs Chipkill)",
	"repro/internal/ecc/chipkill.DecodeVsTruth":              keepAblation + " (SEC-DED vs Chipkill)",
	"repro/internal/ecc/chipkill.Encode":                     keepAblation + " (SEC-DED vs Chipkill)",
	"repro/internal/ecc/chipkill.FlipBit":                    keepAblation + " (SEC-DED vs Chipkill)",
	"repro/internal/ecc/chipkill.FlipCheckBit":               keepAblation + " (SEC-DED vs Chipkill)",
	"repro/internal/ecc/chipkill.checkSymbol":                keepAblation + " (SEC-DED vs Chipkill)",
	"repro/internal/ecc/chipkill.gfDiv":                      keepAblation + " (SEC-DED vs Chipkill)",
	"repro/internal/ecc/chipkill.gfMul":                      keepAblation + " (SEC-DED vs Chipkill)",
	"repro/internal/ecc/chipkill.setCheckSymbol":             keepAblation + " (SEC-DED vs Chipkill)",
	"repro/internal/ecc/chipkill.setSymbol":                  keepAblation + " (SEC-DED vs Chipkill)",
	"repro/internal/ecc/chipkill.symbol":                     keepAblation + " (SEC-DED vs Chipkill)",
	"repro/internal/scrub.NewScrubber":                       keepAblation + " (Patrol scrub)",
	"repro/internal/scrub.NewDetector":                       keepAblation + " (Patrol scrub)",
	"repro/internal/scrub.addrFrac":                          keepAblation + " (Patrol scrub)",
	"repro/internal/scrub.(*Scrubber).NextScrub":             keepAblation + " (Patrol scrub)",
	"repro/internal/scrub.(*Scrubber).Period":                keepAblation + " (Patrol scrub)",
	"repro/internal/scrub.(*Scrubber).phase":                 keepAblation + " (Patrol scrub)",
	"repro/internal/scrub.(*Detector).DetectionTime":         keepAblation + " (Patrol scrub)",
	"repro/internal/scrub.(*Detector).MeanLatency":           keepAblation + " (Patrol scrub)",
	"repro/internal/inventory.(*History).ScanDetectedTotals": keepAblation + " (Table 1 by scan-diffing)",

	"repro/internal/corrupt.Report.String":      keepStringer,
	"repro/internal/ecc.Result.String":          keepStringer,
	"repro/internal/ecc/chipkill.Result.String": keepStringer,
	"repro/internal/faultmodel.Mode.String":     keepStringer,
	"repro/internal/topology.Region.String":     keepStringer,

	"repro/internal/stats.BootstrapCI": keepRoadmap + " (Honest prediction numbers)",
}

// TestEveryProductionFunctionIsLinked is the dead-code census: it builds
// every program (./cmd/..., ./examples/... and the bench module) with
// inlining off, reads the text symbols each binary links, and fails on
// any function declared in a non-test file outside bench/ that no binary
// links and linkKeep does not name. A main package is checked against its
// own binary. It builds a dozen binaries, so it runs only when
// ASTRA_LINK_CENSUS=1 (make verify sets it).
func TestEveryProductionFunctionIsLinked(t *testing.T) {
	if os.Getenv("ASTRA_LINK_CENSUS") != "1" {
		t.Skip("set ASTRA_LINK_CENSUS=1 to build every program and check that each production function is linked")
	}
	bin := t.TempDir()
	goBuild := func(dir string, args ...string) {
		t.Helper()
		cmd := exec.Command("go", append([]string{"build", "-gcflags=all=-l"}, args...)...)
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s in %s: %v\n%s", strings.Join(args, " "), dir, err, out)
		}
	}
	goBuild(".", "-o", bin+string(filepath.Separator), "./cmd/...", "./examples/...")
	goBuild("bench", "-o", filepath.Join(bin, "bench"), ".")

	// linked holds every linked library symbol; mains maps each main
	// package's directory to the symbols of its own binary.
	linked := map[string]bool{}
	mains := map[string]map[string]bool{}
	bins, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bins {
		syms := textSymbols(t, filepath.Join(bin, b.Name()))
		own := map[string]bool{}
		for s := range syms {
			if name, ok := strings.CutPrefix(s, "main."); ok {
				own[name] = true
			} else {
				linked[s] = true
			}
		}
		mains[b.Name()] = own
	}

	var missing []string
	unlinked := map[string]bool{}
	for _, fn := range productionFuncs(t) {
		var ok bool
		if fn.main {
			own, built := mains[filepath.Base(fn.dir)]
			if !built {
				t.Fatalf("main package %s built no binary", fn.dir)
			}
			ok = own[fn.name]
		} else {
			ok = linked[fn.pkg+"."+fn.name]
		}
		if ok {
			continue
		}
		id := fn.pkg + "." + fn.name
		if fn.main {
			id = fn.dir + ":main." + fn.name
		}
		unlinked[id] = true
		if _, keep := linkKeep[id]; !keep {
			missing = append(missing, id+" ("+fn.pos+")")
		}
	}
	for id := range linkKeep {
		if !unlinked[id] {
			t.Errorf("linkKeep names %s, which is linked or no longer declared; drop the entry", id)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("%d production functions are linked by no program; delete them, or name them in linkKeep with the reason they stay:\n\t%s",
			len(missing), strings.Join(missing, "\n\t"))
	}
}

// textSymbols returns the repro… and main… text symbols go tool nm lists
// for binary path. A generic instantiation's name carries its shape types
// in brackets, spaces included; they are cut, so (*T[go.shape.int]).M
// reads (*T).M.
func textSymbols(t *testing.T, path string) map[string]bool {
	t.Helper()
	out, err := exec.Command("go", "tool", "nm", path).Output()
	if err != nil {
		t.Fatalf("go tool nm %s: %v", path, err)
	}
	syms := map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		fields := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
		if len(fields) != 3 || (fields[1] != "T" && fields[1] != "t") {
			continue
		}
		name := stripBrackets(fields[2])
		if strings.HasPrefix(name, "repro") || strings.HasPrefix(name, "main.") {
			syms[name] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return syms
}

// stripBrackets removes every bracketed span, nested ones included.
func stripBrackets(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

type prodFunc struct {
	pkg, dir, name, pos string
	main                bool
}

// productionFuncs parses every non-test .go file outside bench/ that
// builds on this GOOS and GOARCH and returns its functions and methods,
// named the way the linker names them. init functions are skipped: a
// package that is linked runs them.
func productionFuncs(t *testing.T) []prodFunc {
	t.Helper()
	var funcs []prodFunc
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || path == "testdata" || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		if ok, err := build.Default.MatchFile(dir, d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "repro"
		if dir != "." {
			pkg += "/" + filepath.ToSlash(dir)
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
				continue
			}
			funcs = append(funcs, prodFunc{
				pkg:  pkg,
				dir:  filepath.ToSlash(dir),
				name: linkName(fd),
				pos:  fset.Position(fd.Pos()).String(),
				main: f.Name.Name == "main",
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}

// linkName names fd the way go tool nm does: Func, Type.Method or
// (*Type).Method, with type parameters dropped.
func linkName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	ptr := false
	if star, ok := typ.(*ast.StarExpr); ok {
		ptr, typ = true, star.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	recv := typ.(*ast.Ident).Name
	if ptr {
		return "(*" + recv + ")." + fd.Name.Name
	}
	return recv + "." + fd.Name.Name
}
