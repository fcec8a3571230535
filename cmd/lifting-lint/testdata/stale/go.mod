module lifting

go 1.22
