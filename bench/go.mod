module github.com/aigrepro/aig/bench

go 1.22

require github.com/aigrepro/aig v0.0.0

replace github.com/aigrepro/aig => ../
