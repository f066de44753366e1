module wedgechain/benchmark

go 1.22

require wedgechain v0.0.0

replace wedgechain => ../
