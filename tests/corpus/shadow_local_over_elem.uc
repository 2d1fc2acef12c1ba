// expect:
// A local declared in an inner block shadows the index element of the
// enclosing `par`, for reads as it does for stores: every virtual
// processor stores 7 to its own `b[k]`, and no value varies with the
// element `i`, so nothing races.
index_set I:i = {0..3};
int b[4];
main() {
    par (I) {
        int k;
        k = i;
        {
            int i;
            i = 7;
            b[k] = i;
        }
    }
}
