// The benchmark is its own module so it builds from its own build file;
// the path prefix mwmerge/ is what lets it import mwmerge/internal/...
module mwmerge/benchmarks

go 1.22

require mwmerge v0.0.0

replace mwmerge => ../
