package xplace

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"xplace/internal/placer"
)

// TestPlacementOptionsHaveCallers: every field of placer.Options is set or
// read — as a selector or a composite-literal key — by non-test code outside
// internal/placer, so an option nothing can select fails here instead of
// staying an undecided mechanism. The exceptions are the paper's extension
// hooks (Figure 1 / 2(b)), which a library user sets; each names the test
// that exercises it.
func TestPlacementOptionsHaveCallers(t *testing.T) {
	hooks := map[string]string{
		"Optimizer":     "TestOptimizerModuleSwap",
		"AdamLR":        "TestOptimizerModuleSwap",
		"Wirelength":    "TestWirelengthModelSwap",
		"ExtraGradient": "TestExtraGradientHook",
	}
	used := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == filepath.Join("internal", "placer") || (path != "." && strings.HasPrefix(d.Name(), ".")) {
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
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				used[n.Sel.Name] = true
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					used[id.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	typ := reflect.TypeOf(placer.Options{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if _, hook := hooks[name]; !hook && !used[name] {
			t.Errorf("placer.Options.%s has no caller outside internal/placer and its tests: give it one, or delete it", name)
		}
	}
	for name, test := range hooks {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("allow-listed hook %s (exercised by %s) is no longer a field of placer.Options", name, test)
		}
	}
}
