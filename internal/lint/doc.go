// Package lint implements voltvet, the repo's stdlib-only static-analysis
// suite. It machine-checks the invariants every golden SHA-256 pin and the
// content-addressed campaign cache silently rely on: the simulation core is
// deterministic and side-effect free, the step loop stays allocation
// free, snapshots capture every mutable field, and the service layer
// handles locks and errors with discipline.
//
// The suite is built purely on go/parser, go/ast, and go/types — no
// golang.org/x/tools dependency — matching the module's stdlib-only rule.
// The loader parses and type-checks every package in the module (stdlib
// imports are resolved through go/importer's source importer), then each
// analyzer walks the typed ASTs and reports named, suppressible
// diagnostics.
//
// The hot path is inferred, not annotated: it is every function the
// //voltvet:hotpath root seeds reach through the call graph (interface
// calls resolved by class-hierarchy analysis), and the VV-HOT checks run
// on each member of that closure.
//
// # Diagnostic catalog
//
//	VV-DET001  call to time.Now/Since/Until in a deterministic package
//	VV-DET002  import of math/rand (or v2) in a deterministic package
//	VV-DET003  import of crypto/rand in a deterministic package
//	VV-DET004  environment read (os.Getenv & friends) in a deterministic package
//	VV-DET005  deterministic package imports a service-layer package
//	VV-MAP001  order-sensitive iteration over a map in a deterministic package
//	VV-HOT001  fmt call on a hot-path function's live path
//	VV-HOT002  string concatenation on a hot-path function's live path
//	VV-HOT003  capturing closure created on a hot-path function's live path
//	VV-HOT004  concrete-to-interface conversion on a hot-path function's live path
//	VV-HOT006  interface-dispatch call at a hot position
//	VV-SNAP001 mutable field neither captured nor restored by a Capture*/Restore* pair
//	VV-SNAP002 field captured but never restored
//	VV-SNAP003 field restored but never captured
//	VV-SNAP004 voltvet:nosnap waiver on a field that needs none
//	VV-LCK001  sync lock copied by value (parameter or receiver)
//	VV-LCK002  return while a mutex is still locked (no unlock on that path)
//	VV-LCK003  blocking channel send while a mutex is held
//	VV-ERR001  dropped error return outside tests
//	VV-LOAD001 package failed to type-check (analysis may be incomplete)
//	VV-IGN001  malformed voltvet directive (ignore, nosnap, hotpath) or unknown verb
//
// # Suppression
//
// True positives the repo accepts are silenced in place with
//
//	//voltvet:ignore VV-XXXNNN reason the finding is acceptable
//
// on the flagged line or the line directly above it; the reason is
// mandatory. A snapshot field that needs no capture or restore carries
// //voltvet:nosnap reason on its declaration instead. There is no other
// suppression: the gate passes only with zero findings.
package lint
