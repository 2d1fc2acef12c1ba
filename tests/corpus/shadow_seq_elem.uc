// expect:
// The element of a `seq` nested in a `par` shadows the `par` element of
// the same spelling: inside the `seq`, `i` is the front-end value of the
// current step (10, then 11), so every `b[k]` ends as 11.
index_set I:i = {0..3}, S:i = {10..11};
int b[4];
main() {
    par (I) {
        int k;
        k = i;
        seq (S) b[k] = i;
    }
}
