module indexeddf/benchmark

go 1.22

require indexeddf v0.0.0

replace indexeddf => ../
