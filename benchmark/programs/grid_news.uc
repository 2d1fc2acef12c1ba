// §5's grid-goal program with a Figure 11 style obstacle: relax every cell
// against its four NEWS neighbours until nothing changes (`*par`). 128x128
// = 16 384 VPs, twice the simulator's fan-out threshold. The wall lies on
// the anti-diagonal, centred at row C with half-length H; the harness
// prepends `#define C` and `#define H`.
#define N 128
#define DMAX 1073741824
#define WALLV 2147483648
index_set I:i = {0..N-1}, J:j = I;
int a[N][N];
main() {
    par (I, J)
        st (i + j == N - 1 && ABS(i - C) <= H) a[i][j] = WALLV;
        others a[i][j] = DMAX;
    par (I, J) st (i == 0 && j == 0) a[i][j] = 0;
    *par (I, J)
        st (a[i][j] != WALLV && (i != 0 || j != 0)
            && min(min(a[i-1][j], a[i+1][j]), min(a[i][j-1], a[i][j+1])) + 1 < a[i][j])
        a[i][j] = min(min(a[i-1][j], a[i+1][j]), min(a[i][j-1], a[i][j+1])) + 1;
}
