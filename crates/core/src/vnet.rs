//! Virtual networks (§III-B): multiple "addressable" component subtrees
//! (*virtual nodes*, vnodes) sharing one network component.
//!
//! Each vnode is identified by a [`VnodeId`] carried inside its
//! [`NetAddress`](crate::address::NetAddress). The `VirtualNetworkChannel` of the paper is realised
//! with channel selectors: [`connect_vnode`] installs a filtered channel
//! that only delivers (a) messages whose destination names the vnode and
//! (b) notification responses whose token is scoped to it.
//!
//! Messages between vnodes of the *same host* never touch the wire — the
//! network component reflects them locally without serialisation — so a
//! programmer "should never expect to receive copies of network messages"
//! and must treat messages as immutable.

use std::sync::Arc;

use kmsg_component::component::{ComponentDefinition, ProvideRef, RequireRef};
use kmsg_component::system::{ComponentRef, ComponentSystem};

use crate::address::VnodeId;
use crate::msg::{NetIndication, NetworkPort};

/// Connects `client`'s required network port to `provider`'s provided
/// network port through a channel that only delivers indications for the
/// given vnode.
pub fn connect_vnode<P, C>(
    system: &ComponentSystem,
    provider: &ComponentRef<P>,
    client: &ComponentRef<C>,
    vnode: VnodeId,
) where
    P: ComponentDefinition + ProvideRef<NetworkPort>,
    C: ComponentDefinition + RequireRef<NetworkPort>,
{
    system.connect_filtered::<NetworkPort, _, _>(
        provider,
        client,
        None,
        Some(Arc::new(move |ind: &NetIndication| match ind {
            NetIndication::Msg(msg) => msg.header().destination().vnode() == Some(vnode),
            NetIndication::NotifyResp(token, _) => token.vnode == Some(vnode),
            // Channel status concerns the shared physical channel, not any
            // one vnode; the default receiver handles it.
            NetIndication::Status(_) => false,
        })),
    );
}
