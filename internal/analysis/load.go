package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Package is one loaded, parsed and type-checked package of the module
// (or a fixture directory), ready for the analyzers.
type Package struct {
	Path  string // import path, e.g. tilesim/internal/mesh
	Dir   string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// listedPackage mirrors the `go list -json` fields the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Standard   bool
	Error      *struct{ Err string }
}

// Load resolves the package patterns (e.g. "./...", or an explicit
// fixture directory) from dir, parses every matched package's non-test
// Go files, and type-checks them against compiler export data produced
// by the go tool. Only the standard library and the module itself are
// involved; no third-party dependencies.
func Load(dir string, patterns []string) ([]*Package, *token.FileSet, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, nil, err
	}

	// Export data for every package (targets included) keyed by import
	// path, so the type-checker can import dependencies without
	// re-checking their sources.
	exports := make(map[string]string)
	var targets []listedPackage
	for _, p := range listed {
		if p.Error != nil {
			return nil, nil, fmt.Errorf("analysis: go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			targets = append(targets, p)
		}
	}

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		exp, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(exp)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)

	var out []*Package
	for _, t := range targets {
		if len(t.GoFiles) == 0 {
			continue
		}
		files := make([]*ast.File, 0, len(t.GoFiles))
		for _, name := range t.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types: make(map[ast.Expr]types.TypeAndValue),
			Uses:  make(map[*ast.Ident]types.Object),
			Defs:  make(map[*ast.Ident]types.Object),
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(t.ImportPath, fset, files, info)
		if err != nil {
			return nil, nil, fmt.Errorf("analysis: type-checking %s: %v", t.ImportPath, err)
		}
		out = append(out, &Package{
			Path:  t.ImportPath,
			Dir:   t.Dir,
			Files: files,
			Pkg:   pkg,
			Info:  info,
		})
	}
	return out, fset, nil
}

// goList shells out to the go tool for package resolution and export
// data. The tool chain is the single source of truth for what belongs
// to the module, and its build cache provides compiled export data for
// every dependency.
func goList(dir string, patterns []string) ([]listedPackage, error) {
	args := []string{
		"list", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,DepOnly,Standard,Error",
		"--",
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("analysis: go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var out []listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		out = append(out, p)
	}
	return out, nil
}
