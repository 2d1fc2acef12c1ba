// expect:
// Front-end `seq` (§3.5): elements are visited in order on the front
// end, each `st` predicate gates its arm per element, and `others` runs
// for an element only when no arm was enabled.
#define N 10
index_set I:i = {0..N-1};
int a[N], hits, misses;
main() {
    par (I) a[i] = i * 3 % 7;
    seq (I)
        st (a[i] > 3) { a[i] = a[i] - 3; hits = hits + 1; }
        st (i % 4 == 0) hits = hits + 10;
        others { a[i] = a[i] + i; misses = misses + 1; }
}
