// expect: UC101@8
// Every enabled element stores its own index into the one location
// `a[0]`: a write-write race under the §3.4 single-assignment rule, which
// the run traps on (the router detects the collision).
index_set I:i = {0..7};
int a[8];
main() {
    par (I) a[0] = i;
}
