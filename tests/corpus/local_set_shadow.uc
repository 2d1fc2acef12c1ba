// expect:
// A block-local `I` shadows the global one for the `par` and the
// front-end `seq` inside the block; the constructs before and after the
// block see the global `I` again.
index_set I:i = {0..3};
int a[4], b[8], s;
main() {
    par (I) a[i] = i;
    {
        index_set I:i = {0..7};
        par (I) b[i] = i * 10;
        seq (I) s = s + i;
    }
    par (I) a[i] = a[i] + 100;
}
