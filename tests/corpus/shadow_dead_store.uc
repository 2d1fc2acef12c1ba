// expect:
// Two locals that share a spelling are two variables: the store to the
// inner `x` does not overwrite the outer one, which is read afterwards.
int s, t;
main() {
    int x;
    x = 1;
    {
        int x;
        x = 2;
        s = x;
    }
    t = x;
}
