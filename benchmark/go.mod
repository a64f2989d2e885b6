// The benchmark is a module of its own, so that the root module's
// `go build ./...` and `go test ./...` neither build nor run it. Its path
// sits under the root module's, which is what lets it import
// robustconf/internal/...; the replace directive points at the checkout it
// is run from.
module robustconf/benchmark

go 1.22

require robustconf v0.0.0

replace robustconf => ../
