module github.com/smrgo/hpbrcu/benchmark

go 1.22

require github.com/smrgo/hpbrcu v0.0.0

replace github.com/smrgo/hpbrcu => ../
