module bmstore

go 1.23
