module ds2/benchmarks

go 1.24

require ds2 v0.0.0

replace ds2 => ../
